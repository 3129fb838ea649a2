package remote

// PauseAfterReply makes every task of the worker call pause after its reply
// is written and before Drain stops counting it; nil removes the pause.
func (w *Worker) PauseAfterReply(pause func()) {
	if pause == nil {
		w.afterReply.Store(nil)
		return
	}
	w.afterReply.Store(&pause)
}
