package service

// HoldDispatch stops the server's scheduler from dispatching queued jobs
// until the returned function is called; running jobs are unaffected.
func (s *Server) HoldDispatch() (release func()) {
	s.sched.mu.Lock()
	s.sched.held = true
	s.sched.mu.Unlock()
	return func() {
		s.sched.mu.Lock()
		s.sched.held = false
		s.sched.mu.Unlock()
		s.sched.cond.Broadcast()
	}
}
