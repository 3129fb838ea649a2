package remote

import (
	"fmt"
	"time"
)

// Config carries the coordinator's transport tuning. Zero values mean "use
// the default"; explicit values are validated. The package reads no
// environment: callers resolve their settings and pass them here.
type Config struct {
	// HeartbeatInterval is how often the coordinator pings each worker.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout bounds each ping round-trip and handshake read.
	HeartbeatTimeout time.Duration
	// DialTimeout bounds worker connection attempts (handshake and per-task).
	DialTimeout time.Duration
	// CacheReplicas is how many workers hold each hot cached block,
	// including the primary (the worker whose task cached it). 1 — the
	// library default — disables replication and keeps hit accounting
	// bit-compatible with the simulated backend; k > 1 pushes each newly
	// cached loop-invariant block to k-1 secondary holders so losing one
	// worker no longer cold-starts the next iteration. The serve daemon
	// defaults to 2.
	CacheReplicas int
}

// DefaultConfig returns the transport defaults (the former constants).
func DefaultConfig() Config {
	return Config{
		HeartbeatInterval: 500 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		DialTimeout:       5 * time.Second,
		CacheReplicas:     1,
	}
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = d.HeartbeatInterval
	}
	if c.HeartbeatTimeout == 0 {
		c.HeartbeatTimeout = d.HeartbeatTimeout
	}
	if c.DialTimeout == 0 {
		c.DialTimeout = d.DialTimeout
	}
	if c.CacheReplicas == 0 {
		c.CacheReplicas = d.CacheReplicas
	}
	return c
}

// Validate reports configuration errors. Zero fields are legal (they take
// defaults); negative values or a timeout not exceeding the ping interval
// are not.
func (c Config) Validate() error {
	switch {
	case c.HeartbeatInterval < 0:
		return fmt.Errorf("remote: HeartbeatInterval = %v, must be >= 0", c.HeartbeatInterval)
	case c.HeartbeatTimeout < 0:
		return fmt.Errorf("remote: HeartbeatTimeout = %v, must be >= 0", c.HeartbeatTimeout)
	case c.DialTimeout < 0:
		return fmt.Errorf("remote: DialTimeout = %v, must be >= 0", c.DialTimeout)
	case c.CacheReplicas < 0:
		return fmt.Errorf("remote: CacheReplicas = %d, must be >= 0", c.CacheReplicas)
	}
	f := c.withDefaults()
	if f.HeartbeatTimeout <= f.HeartbeatInterval {
		return fmt.Errorf("remote: HeartbeatTimeout (%v) must exceed HeartbeatInterval (%v)",
			f.HeartbeatTimeout, f.HeartbeatInterval)
	}
	return nil
}
