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
}

// DefaultConfig returns the transport defaults (the former constants).
func DefaultConfig() Config {
	return Config{
		HeartbeatInterval: 500 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		DialTimeout:       5 * time.Second,
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
	}
	f := c.withDefaults()
	if f.HeartbeatTimeout <= f.HeartbeatInterval {
		return fmt.Errorf("remote: HeartbeatTimeout (%v) must exceed HeartbeatInterval (%v)",
			f.HeartbeatTimeout, f.HeartbeatInterval)
	}
	return nil
}
