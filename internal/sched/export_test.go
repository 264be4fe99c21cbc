package sched

// Close tears the pool's workers down and waits for them to exit. Do
// calls issued after (or racing with) Close run their chunks serially on
// the caller; in-flight jobs complete normally. Closing twice is a no-op.
// The shared Default pool should never be closed.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.workCh)
	}
	p.mu.Unlock()
	p.workers.Wait()
}
