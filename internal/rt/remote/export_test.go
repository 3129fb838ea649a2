package remote

import "fuseme/internal/blockcache"

// BlockCache returns the worker's block cache (nil when caching is off), so
// external tests can look at what it holds.
func (w *Worker) BlockCache() *blockcache.Cache { return w.cache.Load() }
