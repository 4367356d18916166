package sim

// Engine is the fixture event queue the chaos fixture schedules on. Pure
// declarations — clean for the source ban and vtime, which also run over
// this fixture package.
type Engine struct {
	now Time
}

// Schedule enqueues fn at the virtual instant at.
func (e *Engine) Schedule(at Time, fn func()) {
	_ = at
	_ = fn
}
