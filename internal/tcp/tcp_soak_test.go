package tcp_test

import (
	"errors"
	"strconv"
	"testing"
	"time"

	"encompass/internal/tcp"
)

// TestTCPSoakRepeatedTakeovers runs a wave of Screen COBOL terminals while
// the TCP's serving CPU is killed and revived several times. Every
// terminal's transaction must apply exactly once: the sum of deposits is
// exact despite the takeovers and restarts.
func TestTCPSoakRepeatedTakeovers(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	e := newEnv(t) // account 100 seeded with balance 50, bank server class
	const terminals = 12

	// A program that stretches its transaction across two ACCEPTs so
	// takeovers land mid-transaction often.
	src := `
PROGRAM slowdeposit.
WORKING-STORAGE.
  01 acct PIC X(8).
  01 amount PIC 9(6).
  01 go PIC X(4).
  01 status PIC X(32).
  01 bal PIC 9(8).
SCREEN s1.
  FIELD acct.
  FIELD amount.
END-SCREEN.
SCREEN s2.
  FIELD go.
END-SCREEN.
PROC.
  ACCEPT s1.
  BEGIN-TRANSACTION.
  ACCEPT s2.
  SEND "deposit" TO SERVER "bank" USING acct, amount REPLYING status, bal.
  IF SEND-STATUS = "OK" THEN
    END-TRANSACTION.
  ELSE
    RESTART-TRANSACTION.
  END-IF.
END-PROC.
`
	terms := make([]*termDriver, terminals)
	for i := 0; i < terminals; i++ {
		term, err := e.tcp.Attach("soak"+strconv.Itoa(i), src)
		if err != nil {
			t.Fatal(err)
		}
		terms[i] = &termDriver{t: t, term: term}
	}

	// Fault injector: flip the TCP's CPUs while terminals are mid-flight.
	stop := make(chan struct{})
	go func() {
		cpus := []int{2, 3}
		i := 0
		for {
			select {
			case <-stop:
				return
			case <-time.After(8 * time.Millisecond):
				cpu := cpus[i%2]
				i++
				e.node.HW.FailCPU(cpu)
				time.Sleep(5 * time.Millisecond)
				e.node.HW.ReviveCPU(cpu)
			}
		}
	}()

	// Stagger the first screens so transactions are in flight while the
	// injector runs, then feed the second screen repeatedly: a takeover
	// that discards an unconsumed input needs a re-entry, like a real
	// terminal user re-pressing ENTER.
	for _, td := range terms {
		td.term.Input(map[string]string{"acct": "100", "amount": "1"})
		time.Sleep(3 * time.Millisecond)
	}
	for _, td := range terms {
		td.driveToCompletion()
	}
	close(stop)

	v, err := e.node.FS.Read("accounts", "100")
	if err != nil {
		t.Fatal(err)
	}
	want := strconv.Itoa(50 + terminals)
	if string(v) != want {
		t.Errorf("balance = %s, want %s (each deposit exactly once)", v, want)
	}
}

type termDriver struct {
	t    *testing.T
	term interface {
		Input(map[string]string)
		Wait(time.Duration) error
	}
}

// driveToCompletion keeps supplying the s2 screen until the program
// finishes; restarts after takeover consume a fresh ACCEPT each time. A
// program that finished with an error fails the test with that error.
func (td *termDriver) driveToCompletion() {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		td.term.Input(map[string]string{"go": "y"})
		err := td.term.Wait(300 * time.Millisecond)
		if err == nil {
			return
		}
		if !errors.Is(err, tcp.ErrNotFinished) {
			td.t.Errorf("terminal finished with an error: %v", err)
			return
		}
	}
	td.t.Error("terminal never finished")
}
