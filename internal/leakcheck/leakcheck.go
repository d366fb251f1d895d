// Package leakcheck holds a test to the Close contract of the code it
// drives: once Close has returned, nothing logs any more and no goroutine
// the code started is still running. Only tests import it.
//
//	log := leakcheck.NewLog(t, true)
//	base := runtime.NumGoroutine()
//	// ... start the code with log.Logf as its logger, use it, Close it ...
//	log.Close()
//	leakcheck.Goroutines(t, base)
//	log.Check("the fabric")
package leakcheck

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// Log is a Logf for the code under test. Until Close it forwards each line
// to the test's log (when echo is set); after Close it keeps the lines,
// and Check fails the test with each of them.
type Log struct {
	t    testing.TB
	echo bool

	mu     sync.Mutex
	closed bool
	late   []string
}

// NewLog returns a Log for t; echo forwards lines logged before Close to
// t.Logf.
func NewLog(t testing.TB, echo bool) *Log { return &Log{t: t, echo: echo} }

// Logf has the signature every Logf hook in the repo takes.
func (l *Log) Logf(format string, args ...any) {
	l.t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.closed:
		l.late = append(l.late, fmt.Sprintf(format, args...))
	case l.echo:
		l.t.Logf(format, args...)
	}
}

// Close marks the code under test closed: every later line is a failure.
func (l *Log) Close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
}

// Check fails the test once per line logged after Close; who names the
// code that logged it.
func (l *Log) Check(who string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range l.late {
		l.t.Errorf("%s logged after Close returned: %s", who, line)
	}
}

// Goroutines waits until at most base goroutines run — base being the
// count before the code under test started — and fails the test with
// every goroutine's stack if that takes more than ten seconds.
func Goroutines(t testing.TB, base int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Errorf("%d goroutines outlive the code under test (%d before it):\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
			return
		}
	}
}
