package remote

import "fuseme/internal/blockcache"

// BlockCache returns the worker's block cache (nil before a stage shipped a
// budget), so external tests can look at what it holds.
func (w *Worker) BlockCache() *blockcache.Cache {
	w.cacheMu.Lock()
	defer w.cacheMu.Unlock()
	return w.cache
}
