package main

import (
	"fmt"
	"sort"
	"strconv"

	"encompass"
)

// model is the shadow of every acknowledged commit: the balance each
// key-sequenced record must hold and the history records that must exist.
// Balances are sums of committed amounts, so the order in which two
// terminals' commits interleaved does not matter.
type model struct {
	bal  map[string]map[string]int64 // file → key → balance
	hist []string                    // values appended to "history"
}

func newModel(a app) *model {
	m := &model{bal: make(map[string]map[string]int64)}
	a.seedRecords(func(_ *encompass.Node, file, key string, bal int64) { m.add(file, key, bal) })
	return m
}

func (m *model) add(file, key string, delta int64) {
	f := m.bal[file]
	if f == nil {
		f = make(map[string]int64)
		m.bal[file] = f
	}
	f[key] += delta
}

// outcome is what became of one scheduled op.
type outcome uint8

const (
	pending  outcome = iota
	done             // acknowledged: committed update, answered inquiry, or completed abort
	failedOp         // refused, errored or out of retries
)

// expected rebuilds the shadow model from the schedule and what was
// acknowledged, so the hot path keeps no model of its own.
func expected(a app, sched schedule, outcomes [][][]outcome) *model {
	m := newModel(a)
	for r, round := range sched {
		for t, ops := range round {
			for i := range ops {
				if ops[i].kind == kindUpdate && outcomes[r][t][i] == done {
					a.apply(m, &ops[i], opTag(r, t, i))
				}
			}
		}
	}
	return m
}

// metaFile is the DISCPROCESS's reserved per-volume catalog file.
const metaFile = "__meta__"

// check compares the volumes of every node with the model: every
// acknowledged update and history record present, nothing else visible
// (an aborted update would change a balance or add a history record), TP1's
// branch = Σ tellers, and both mirrors of every volume identical. The error
// names the first differing key.
func (m *model) check(sys *encompass.System) error {
	onDisc := make(map[string]map[string][]byte) // file → key → value, all volumes merged
	for _, node := range sys.Nodes() {
		for name, v := range node.Volumes {
			if !v.Disk.MirrorsConsistent() {
				return fmt.Errorf("oracle: volume %s/%s: mirrors differ", node.Name, name)
			}
			for file, recs := range v.Disk.Snapshot() {
				if file == metaFile {
					continue
				}
				if onDisc[file] == nil {
					onDisc[file] = make(map[string][]byte, len(recs))
				}
				for k, val := range recs {
					onDisc[file][k] = val
				}
			}
		}
	}

	for _, file := range sortedKeys(m.bal) {
		want, got := m.bal[file], onDisc[file]
		for _, key := range sortedKeys(want) {
			raw, ok := got[key]
			if !ok {
				return fmt.Errorf("oracle: %s/%s missing, want %d", file, key, want[key])
			}
			if n, err := strconv.ParseInt(string(raw), 10, 64); err != nil || n != want[key] {
				return fmt.Errorf("oracle: %s/%s holds %q, want %d", file, key, raw, want[key])
			}
		}
		for _, key := range sortedKeys(got) {
			if _, ok := want[key]; !ok {
				return fmt.Errorf("oracle: %s/%s present but never inserted", file, key)
			}
		}
	}

	wantHist := append([]string(nil), m.hist...)
	gotHist := make([]string, 0, len(onDisc["history"]))
	for _, val := range onDisc["history"] {
		gotHist = append(gotHist, string(val))
	}
	sort.Strings(wantHist)
	sort.Strings(gotHist)
	for i := 0; i < len(wantHist) || i < len(gotHist); i++ {
		switch {
		case i >= len(gotHist) || (i < len(wantHist) && wantHist[i] < gotHist[i]):
			return fmt.Errorf("oracle: history record %q acknowledged but missing", wantHist[i])
		case i >= len(wantHist) || gotHist[i] < wantHist[i]:
			return fmt.Errorf("oracle: history record %q present but never committed", gotHist[i])
		}
	}

	if tellers, ok := onDisc["tellers"]; ok {
		sums := make(map[string]int64)
		for key, raw := range tellers {
			n, _ := strconv.ParseInt(string(raw), 10, 64) // validated against the model above
			t, _ := strconv.Atoi(key[1:])
			sums[recKey('b', int32(t/tp1TellersPer), 3)] += n
		}
		for _, key := range sortedKeys(sums) {
			if n, _ := strconv.ParseInt(string(onDisc["branches"][key]), 10, 64); n != sums[key] {
				return fmt.Errorf("oracle: branch %s holds %d, its tellers sum to %d", key, n, sums[key])
			}
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
