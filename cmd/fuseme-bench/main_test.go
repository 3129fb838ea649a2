package main

import "testing"

// TestListPinsExperimentIDs: -list names exactly the paper's tables and
// figures. The retired wall-clock ids (cache, chaos, kernels, pipeline,
// replan, serve) were replaced by the repo benchmark under bench/.
func TestListPinsExperimentIDs(t *testing.T) {
	const want = "experiments: ablation fig12a fig12b fig12c fig12d fig13 fig13d fig14 fig15 plans table1 table3 all"
	if got := listLine(); got != want {
		t.Errorf("-list prints %q, want %q", got, want)
	}
}
