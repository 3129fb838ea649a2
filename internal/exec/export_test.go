package exec

import "fuseme/internal/cluster"

// BindSourceAhead reports whether the in-process block source, plain and
// traced, offers a read-ahead hook, for external tests.
func BindSourceAhead() (plain, traced bool) {
	src := bindSource{}
	return src.ahead() != nil, tracedSource{src: src, tt: &cluster.TaskTrace{}}.ahead() != nil
}
