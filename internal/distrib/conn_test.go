package distrib

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// acceptLoop accepts connections until the listener closes, holding each
// accepted conn open until its peer disconnects (so the limiter slot is
// released exactly when the client goes away).
func acceptLoop(t *testing.T, ln net.Listener) {
	t.Helper()
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		go func() {
			buf := make([]byte, 1)
			_, _ = c.Read(buf) // blocks until peer close
			c.Close()
		}()
	}
}

func waitActive(t *testing.T, tr *Tracker, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for tr.Active() != want {
		if time.Now().After(deadline) {
			t.Fatalf("active = %d, want %d", tr.Active(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLimitListenerCapsConcurrentConns(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracker()
	ln := Limit(inner, 2, tr)
	defer ln.Close()

	go acceptLoop(t, ln)

	var conns []net.Conn
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i := 0; i < 3; i++ {
		c, err := net.Dial("tcp", inner.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	// The third dial succeeds (kernel queue) but must not be *accepted*
	// while two are held.
	waitActive(t, tr, 2)
	time.Sleep(50 * time.Millisecond)
	if a := tr.Active(); a != 2 {
		t.Fatalf("limit 2 listener accepted %d conns", a)
	}
	if s := tr.Stats(); s.Accepted != 2 {
		t.Fatalf("accepted = %d before any release", s.Accepted)
	}

	// Releasing one admits the queued connection.
	conns[0].Close()
	deadline := time.Now().Add(5 * time.Second)
	for tr.Stats().Accepted != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("queued conn never accepted: %+v", tr.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if s := tr.Stats(); s.Peak != 2 {
		t.Errorf("stats = %+v, want peak 2", s)
	}
}

func TestLimitListenerCloseUnblocksSaturatedAccept(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := Limit(inner, 1, nil)

	c, err := net.Dial("tcp", inner.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	held, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()

	// Accept is now blocked on the semaphore; Close must unblock it.
	got := make(chan error, 1)
	go func() {
		_, err := ln.Accept()
		got <- err
	}()
	time.Sleep(20 * time.Millisecond)
	ln.Close()
	select {
	case err := <-got:
		if !errors.Is(err, net.ErrClosed) {
			t.Errorf("saturated Accept after Close returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("saturated Accept did not observe Close")
	}
}

// TestLimitListenerConcurrentChurn hammers the limiter from many dialers
// under the race detector: the active gauge must never exceed the cap
// and must return to zero.
func TestLimitListenerConcurrentChurn(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracker()
	const cap, dialers = 4, 32
	ln := Limit(inner, cap, tr)
	defer ln.Close()

	// A Dial completes in the kernel backlog before Accept returns, so
	// the dialers finishing says nothing about the accept loop: it
	// signals once it has taken every connection.
	allAccepted := make(chan struct{})
	go func() {
		for accepted := 0; ; {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			if a := tr.Active(); a > cap {
				t.Errorf("active %d exceeds cap %d", a, cap)
			}
			go func() {
				buf := make([]byte, 1)
				_, _ = c.Read(buf)
				c.Close()
				c.Close() // double-close must not double-release
			}()
			if accepted++; accepted == dialers {
				close(allAccepted)
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < dialers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := net.Dial("tcp", inner.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			_, _ = c.Write([]byte{1})
			c.Close()
		}()
	}
	wg.Wait()
	select {
	case <-allAccepted:
	case <-time.After(5 * time.Second):
		t.Fatalf("accept loop took %d of %d connections", tr.Stats().Accepted, dialers)
	}
	waitActive(t, tr, 0)
	if s := tr.Stats(); s.Accepted != dialers {
		t.Errorf("accepted = %d, want %d", s.Accepted, dialers)
	}
}

func TestTrackerStatsAndFDProbe(t *testing.T) {
	tr := NewTracker()
	tr.connOpened()
	tr.connOpened()
	tr.connClosed()
	tr.Evict()
	s := tr.Stats()
	if s.Active != 1 || s.Peak != 2 || s.Accepted != 2 || s.Evicted != 1 {
		t.Errorf("stats = %+v", s)
	}
	if runtime.GOOS == "linux" {
		if s.FDSoftLimit == 0 {
			t.Error("no RLIMIT_NOFILE soft limit probed on linux")
		}
		if s.FDHeadroom <= 0 || s.FDHeadroom >= int64(s.FDSoftLimit) {
			t.Errorf("fd headroom %d implausible against soft limit %d", s.FDHeadroom, s.FDSoftLimit)
		}
	}
}
