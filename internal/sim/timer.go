package sim

// Timer is a restartable, cancellable one-shot timer bound to a kernel.
// It is the building block for protocol timeouts: backoff timers,
// arbiter retransmission timers, hello intervals.
//
// Unlike scheduling raw events, a Timer guarantees that at most one
// firing is pending at a time: Reset implicitly cancels the previous
// schedule.
type Timer struct {
	kernel *Kernel
	fn     func()
	fireFn func() // t.fire bound once; rebinding per Reset would allocate
	ev     *Event
	fires  uint64
}

// NewTimer returns a stopped timer that runs fn on expiry.
func NewTimer(k *Kernel, fn func()) *Timer {
	t := &Timer{}
	InitTimer(t, k, fn)
	return t
}

// InitTimer initializes a stopped timer in place — the value-embedding
// alternative to NewTimer for owners that hold the Timer inline (one
// fewer heap object per node at mega scale). The timer captures its own
// address, so the owner must not be copied afterwards.
func InitTimer(t *Timer, k *Kernel, fn func()) {
	if fn == nil {
		panic("sim: nil timer callback")
	}
	*t = Timer{kernel: k, fn: fn}
	t.fireFn = t.fire
}

// Reset (re)schedules the timer to fire after delay, cancelling any
// pending expiry.
func (t *Timer) Reset(delay Time) {
	t.Stop()
	t.ev = t.kernel.Schedule(delay, t.fireFn)
}

// ResetAt (re)schedules the timer to fire at absolute time at.
func (t *Timer) ResetAt(at Time) {
	t.Stop()
	t.ev = t.kernel.At(at, t.fireFn)
}

func (t *Timer) fire() {
	t.ev = nil
	t.fires++
	t.fn()
}

// Stop cancels a pending expiry; it is a no-op on a stopped timer.
func (t *Timer) Stop() {
	if t.ev != nil {
		t.kernel.Cancel(t.ev)
		t.ev = nil
	}
}

// Pending reports whether the timer is scheduled to fire.
func (t *Timer) Pending() bool { return t.ev.Pending() }

// Deadline returns the time of the pending expiry; it is only
// meaningful when Pending is true.
func (t *Timer) Deadline() Time {
	if t.ev == nil {
		return Infinity
	}
	return t.ev.At()
}

// Fires returns how many times the timer has expired (not counting
// stopped or reset schedules). Useful in tests and retry counters.
func (t *Timer) Fires() uint64 { return t.fires }

// Ticker repeatedly invokes a callback at a fixed period until stopped.
// Protocol beacons (AODV hello messages, CBR sources) are tickers.
type Ticker struct {
	timer  *Timer
	period Time
	fn     func()
}

// NewTicker returns a stopped ticker with the given period.
func NewTicker(k *Kernel, period Time, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{period: period, fn: fn}
	t.timer = NewTimer(k, t.tick)
	return t
}

func (t *Ticker) tick() {
	t.timer.Reset(t.period)
	t.fn()
}

// Start schedules the first tick after one period.
func (t *Ticker) Start() { t.timer.Reset(t.period) }

// StartAfter schedules the first tick after the given delay; subsequent
// ticks follow at the ticker's period. Use it to de-phase periodic
// processes across nodes.
func (t *Ticker) StartAfter(delay Time) { t.timer.Reset(delay) }

// Stop cancels future ticks.
func (t *Ticker) Stop() { t.timer.Stop() }

// Pending reports whether a tick is scheduled.
func (t *Ticker) Pending() bool { return t.timer.Pending() }

// SetPeriod changes the period used for ticks scheduled after the call.
func (t *Ticker) SetPeriod(p Time) {
	if p <= 0 {
		panic("sim: ticker period must be positive")
	}
	t.period = p
}
