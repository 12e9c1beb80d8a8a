package service

// DispatchLog returns the recorded scheduler decisions (Config.recordDispatch).
func (s *Service) DispatchLog() []dispatch {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]dispatch(nil), s.dispatches...)
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}
