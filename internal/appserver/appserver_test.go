package appserver

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"encompass/internal/expand"
	"encompass/internal/hw"
	"encompass/internal/msg"
	"encompass/internal/txid"
)

func newSys(t *testing.T, cpus int) *msg.System {
	t.Helper()
	n, err := hw.NewNode("n", cpus)
	if err != nil {
		t.Fatal(err)
	}
	return msg.NewSystem(n)
}

func echoHandler(tx txid.ID, fields map[string]string) (map[string]string, error) {
	out := map[string]string{"TX": tx.String()}
	for k, v := range fields {
		out[k] = v
	}
	return out, nil
}

func TestBasicRequestReply(t *testing.T) {
	sys := newSys(t, 3)
	_, err := Start(sys, Config{Class: "echo", Handler: echoHandler})
	if err != nil {
		t.Fatal(err)
	}
	tx := txid.ID{Home: "n", CPU: 0, Seq: 1}
	fields, err := CallTimeout(sys, nil, 2, "", "echo", tx, map[string]string{"A": "1"}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if fields["A"] != "1" || fields["TX"] != tx.String() {
		t.Errorf("reply = %v", fields)
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	sys := newSys(t, 3)
	Start(sys, Config{Class: "bad", Handler: func(txid.ID, map[string]string) (map[string]string, error) {
		return nil, errors.New("application rejected")
	}})
	_, err := CallTimeout(sys, nil, 2, "", "bad", txid.ID{}, nil, 2*time.Second)
	var re *msg.RemoteError
	if !errors.As(err, &re) || re.Msg != "application rejected" {
		t.Errorf("err = %v", err)
	}
}

func TestDynamicInstanceGrowth(t *testing.T) {
	sys := newSys(t, 4)
	var mu sync.Mutex
	concurrent, peak := 0, 0
	cls, err := Start(sys, Config{
		Class:        "slow",
		MinInstances: 1,
		MaxInstances: 4,
		Handler: func(txid.ID, map[string]string) (map[string]string, error) {
			mu.Lock()
			concurrent++
			if concurrent > peak {
				peak = concurrent
			}
			mu.Unlock()
			time.Sleep(20 * time.Millisecond)
			mu.Lock()
			concurrent--
			mu.Unlock()
			return map[string]string{}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := CallTimeout(sys, nil, 3, "", "slow", txid.ID{}, nil, 5*time.Second); err != nil {
				t.Errorf("call: %v", err)
			}
		}()
	}
	wg.Wait()
	if peak < 2 {
		t.Errorf("peak concurrency = %d, want >= 2 (pool should grow)", peak)
	}
	st := cls.Stats()
	if st.Created < 2 {
		t.Errorf("created = %d, want >= 2", st.Created)
	}
	if st.Dispatched != n {
		t.Errorf("dispatched = %d, want %d", st.Dispatched, n)
	}
	// Idle shrink back toward the minimum.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cls.Stats().Retired > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if cls.Stats().Retired == 0 {
		t.Error("no instances retired after load dropped")
	}
}

func TestSequentialThroughput(t *testing.T) {
	sys := newSys(t, 3)
	Start(sys, Config{Class: "inc", Handler: func(_ txid.ID, f map[string]string) (map[string]string, error) {
		n, _ := strconv.Atoi(f["N"])
		return map[string]string{"N": strconv.Itoa(n + 1)}, nil
	}})
	for i := 0; i < 50; i++ {
		fields, err := CallTimeout(sys, nil, 2, "", "inc", txid.ID{}, map[string]string{"N": strconv.Itoa(i)}, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if fields["N"] != strconv.Itoa(i+1) {
			t.Fatalf("reply = %v", fields)
		}
	}
}

func TestCrossNodeServerCall(t *testing.T) {
	net := expand.NewNetwork(0)
	nodeA, _ := hw.NewNode("a", 2)
	nodeB, _ := hw.NewNode("b", 2)
	sysA, sysB := msg.NewSystem(nodeA), msg.NewSystem(nodeB)
	net.Attach(sysA)
	net.Attach(sysB)
	net.AddLink("a", "b")
	Start(sysB, Config{Class: "remote", Handler: echoHandler})
	fields, err := CallTimeout(sysA, nil, 1, "b", "remote", txid.ID{Home: "a", Seq: 1}, map[string]string{"X": "y"}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if fields["X"] != "y" {
		t.Errorf("reply = %v", fields)
	}
}

func TestDispatcherSurvivesCPUFailure(t *testing.T) {
	sys := newSys(t, 3)
	cls, err := Start(sys, Config{Class: "echo", Handler: echoHandler, CPUs: []int{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CallTimeout(sys, nil, 2, "", "echo", txid.ID{}, nil, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	sys.Node().FailCPU(0) // dispatcher CPU
	// Application control restarts the class; retry until it answers.
	deadline := time.Now().Add(3 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		if _, lastErr = CallTimeout(sys, nil, 2, "", "echo", txid.ID{}, nil, time.Second); lastErr == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if lastErr != nil {
		t.Fatalf("class never came back: %v", lastErr)
	}
	_ = cls
}

func TestStartValidation(t *testing.T) {
	sys := newSys(t, 2)
	if _, err := Start(sys, Config{}); err == nil {
		t.Error("empty config should fail")
	}
	if _, err := Start(sys, Config{Class: "x"}); err == nil {
		t.Error("missing handler should fail")
	}
}

func TestManyClassesCoexist(t *testing.T) {
	sys := newSys(t, 4)
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("class%d", i)
		i := i
		Start(sys, Config{Class: name, Handler: func(txid.ID, map[string]string) (map[string]string, error) {
			return map[string]string{"WHO": name, "I": strconv.Itoa(i)}, nil
		}})
	}
	for i := 0; i < 5; i++ {
		fields, err := CallTimeout(sys, nil, 3, "", fmt.Sprintf("class%d", i), txid.ID{}, nil, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if fields["I"] != strconv.Itoa(i) {
			t.Errorf("class%d replied %v", i, fields)
		}
	}
}
