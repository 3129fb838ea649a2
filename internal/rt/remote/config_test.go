package remote

import (
	"testing"
	"time"

	"fuseme/internal/cluster"
)

func TestConfigDefaults(t *testing.T) {
	d := DefaultConfig()
	if d.HeartbeatInterval != 500*time.Millisecond || d.HeartbeatTimeout != 2*time.Second || d.DialTimeout != 5*time.Second {
		t.Errorf("DefaultConfig() = %+v, want 500ms/2s/5s", d)
	}
	if err := d.Validate(); err != nil {
		t.Errorf("defaults invalid: %v", err)
	}
	if got := (Config{}).withDefaults(); got != d {
		t.Errorf("zero config withDefaults() = %+v, want %+v", got, d)
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero takes defaults", Config{}, true},
		{"explicit valid", Config{HeartbeatInterval: time.Second, HeartbeatTimeout: 3 * time.Second}, true},
		{"negative interval", Config{HeartbeatInterval: -time.Second}, false},
		{"negative timeout", Config{HeartbeatTimeout: -time.Second}, false},
		{"negative dial", Config{DialTimeout: -time.Second}, false},
		{"timeout equals interval", Config{HeartbeatInterval: time.Second, HeartbeatTimeout: time.Second}, false},
		{"timeout below default interval", Config{HeartbeatTimeout: 100 * time.Millisecond}, false},
		{"interval above default timeout", Config{HeartbeatInterval: 10 * time.Second}, false},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate(%+v) = %v, want ok=%t", c.name, c.cfg, err, c.ok)
		}
	}
}

// TestCoordinatorRejectsInvalidConfig checks the construction-time gate.
func TestCoordinatorRejectsInvalidConfig(t *testing.T) {
	w, err := NewWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	cfg := cluster.Config{
		Nodes: 1, TasksPerNode: 2, TaskMemBytes: 1 << 30,
		NetBandwidth: 1e9, CompBandwidth: 50e9, BlockSize: 16,
	}
	bad := Config{HeartbeatInterval: time.Second, HeartbeatTimeout: time.Second}
	if _, err := NewCoordinatorConfig(cfg, []string{w.Addr()}, bad); err == nil {
		t.Fatal("invalid transport config accepted")
	}
}
