package sim

// Timer is a restartable, cancellable one-shot timer bound to a kernel.
// It is the building block for protocol timeouts: backoff timers,
// arbiter retransmission timers, discovery timeouts.
//
// Unlike scheduling raw events, a Timer guarantees that at most one
// firing is pending at a time: Reset implicitly cancels the previous
// schedule. The timer is itself the handler its events carry, and it
// holds its owner's handler, so arming it allocates nothing.
type Timer struct {
	kernel *Kernel
	h      Handler
	ev     *Event
}

// NewTimer returns a stopped timer that runs fn on expiry. Only tests
// and the benchmark's timer ladder call it: model code holds its timer
// by value and binds itself with InitTimer.
func NewTimer(k *Kernel, fn func()) *Timer {
	t := &Timer{}
	InitTimer(t, k, funcHandler(fn))
	return t
}

// InitTimer initializes a stopped timer in place — the value-embedding
// alternative to NewTimer for owners that hold the Timer inline (one
// fewer heap object per node at mega scale). h fires on every expiry;
// when it is a pointer (the owner, typically), binding it allocates
// nothing. The timer's events carry its own address, so the owner must
// not be copied afterwards.
func InitTimer(t *Timer, k *Kernel, h Handler) {
	if h == nil {
		panic("sim: nil timer callback")
	}
	*t = Timer{kernel: k, h: h}
}

// Reset (re)schedules the timer to fire after delay, cancelling any
// pending expiry.
func (t *Timer) Reset(delay Time) {
	t.Stop()
	t.ev = t.kernel.After(delay, t)
}

// Fire is the timer's expiry event: it runs the owner's handler. Owners
// arm and cancel the timer with Reset and Stop; the kernel calls Fire.
func (t *Timer) Fire() {
	t.ev = nil
	t.h.Fire()
}

// Stop cancels a pending expiry; it is a no-op on a stopped timer.
func (t *Timer) Stop() {
	if t.ev != nil {
		t.kernel.Cancel(t.ev)
		t.ev = nil
	}
}

// Ticker repeatedly invokes a callback at a fixed period until stopped.
// CBR sources and fault processes are tickers.
type Ticker struct {
	timer  Timer
	period Time
	fn     func()
}

// NewTicker returns a stopped ticker with the given period.
func NewTicker(k *Kernel, period Time, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{period: period, fn: fn}
	InitTimer(&t.timer, k, t)
	return t
}

// Fire is one tick, the ticker's timer event: re-arm, then run the
// callback. Owners use Start and Stop; the kernel calls Fire.
func (t *Ticker) Fire() {
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
