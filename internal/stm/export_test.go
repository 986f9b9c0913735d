package stm

// EverScheduledCommitHook reports whether any transaction run in the
// context tid owns has scheduled a commit hook: the hook list is nil until
// the first one is appended, and only ever truncated after.
func (rt *Runtime) EverScheduledCommitHook(tid int) bool {
	return cap(rt.context(tid).commitHooks) > 0
}
