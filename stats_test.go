package fuseme

import (
	"reflect"
	"testing"

	"fuseme/internal/cluster"
)

// TestStatsCarryEveryRuntimeField: every field of cluster.Stats but
// PrefetchSeconds, which is always zero, reaches fuseme.Stats under its own
// name with its value, so a counter the runtime gains cannot stop short of
// the public type.
func TestStatsCarryEveryRuntimeField(t *testing.T) {
	var c cluster.Stats
	cv := reflect.ValueOf(&c).Elem()
	for i := 0; i < cv.NumField(); i++ {
		switch f := cv.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.5)
		default:
			t.Fatalf("cluster.Stats.%s is a %s: extend the test", cv.Type().Field(i).Name, f.Kind())
		}
	}
	pv := reflect.ValueOf(statsFrom(c))
	for i := 0; i < cv.NumField(); i++ {
		name := cv.Type().Field(i).Name
		if name == "PrefetchSeconds" {
			if _, ok := pv.Type().FieldByName(name); ok {
				t.Errorf("fuseme.Stats carries %s, which is always zero", name)
			}
			continue
		}
		f := pv.FieldByName(name)
		if !f.IsValid() {
			t.Errorf("fuseme.Stats has no %s", name)
			continue
		}
		if !f.Equal(cv.Field(i)) {
			t.Errorf("fuseme.Stats.%s = %v, cluster.Stats has %v", name, f, cv.Field(i))
		}
	}
}
