package gtrace

import (
	"bytes"
	"testing"

	"repro/internal/trace"
)

// encodeAll writes tr's three tables and returns them.
func encodeAll(t testing.TB, tr *trace.Trace) (machines, events, usage []byte) {
	t.Helper()
	var mb, eb, ub bytes.Buffer
	if err := Encode(&mb, &eb, &ub, tr); err != nil {
		t.Fatalf("encode decoded trace: %v", err)
	}
	return mb.Bytes(), eb.Bytes(), ub.Bytes()
}

// FuzzDecode feeds arbitrary machine_events, task_events and
// task_usage text to Decode and to the EventScanner and UsageScanner
// loops. Nothing may panic; Decode accepts the event and usage tables
// exactly when the scanners do, with the same row counts; and an
// accepted trace re-encodes to a fixpoint: encoding it, decoding that
// and encoding again yields the same bytes.
func FuzzDecode(f *testing.F) {
	seed := &trace.Trace{
		Machines: []trace.Machine{
			{ID: 0, CPU: 1, Memory: 1, PageCache: 1},
			{ID: 7, CPU: 0.5, Memory: 0.25, PageCache: 1},
		},
		Events: []trace.TaskEvent{
			{Time: 0, JobID: 1, TaskIndex: 0, Machine: -1, Type: trace.EventSubmit, Priority: 2},
			{Time: 10, JobID: 1, TaskIndex: 0, Machine: 0, Type: trace.EventSchedule, Priority: 2},
			{Time: 900, JobID: 1, TaskIndex: 0, Machine: 0, Type: trace.EventFinish, Priority: 2},
			{Time: 700, JobID: 11, TaskIndex: 2, Machine: 5, Type: trace.EventEvict, Priority: 11},
		},
		Usage: []trace.UsageSample{
			{Start: 10, End: 310, JobID: 1, TaskIndex: 0, Machine: 0, CPU: 0.3, MemUsed: 0.1},
			{Start: 0, End: 300, JobID: 1, TaskIndex: 0, Machine: 2,
				CPU: 0.25, MemUsed: 0.1, MemAssigned: 0.15, PageCache: 0.02},
		},
	}
	m, e, u := encodeAll(f, seed)
	f.Add(m, e, u)
	var churn bytes.Buffer
	if err := EncodeMachineEvents(&churn, seed.Machines, []MachineTransition{
		{Time: 100, Machine: 0, Up: false},
		{Time: 400, Machine: 0, Up: true},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(churn.Bytes(), e, u)
	f.Add([]byte("0,1,0,,0.5,0.5\n100,1,1,,0.5,0.5\n200,2,0,,1,1\n"), e, u)
	// One bad table at a time, so each table's error path is seeded.
	f.Add([]byte("0,x,0,,0.5,0.5\n"), e, u)
	f.Add(m, []byte("0,,1,0,,0,,,3,,,,\nBADROW\n"), u)
	f.Add(m, []byte("0,,1,0,,42,,,1,,,,\n"), u)
	f.Add(m, e, []byte("0,300,1,0,2,bad,0.1,0.1,0,0.1\n"))

	f.Fuzz(func(t *testing.T, machines, events, usage []byte) {
		es := NewEventScanner(bytes.NewReader(events))
		nEvents := 0
		for es.Scan() {
			nEvents++
		}
		us := NewUsageScanner(bytes.NewReader(usage))
		nUsage := 0
		for us.Scan() {
			nUsage++
		}
		_, merr := DecodeMachines(bytes.NewReader(machines))

		tr, err := Decode(bytes.NewReader(machines), bytes.NewReader(events), bytes.NewReader(usage))
		scannersOK := merr == nil && es.Err() == nil && us.Err() == nil
		if (err == nil) != scannersOK {
			t.Fatalf("Decode error %v, but machines %v, events %v, usage %v", err, merr, es.Err(), us.Err())
		}
		if err != nil {
			return
		}
		if len(tr.Events) != nEvents || len(tr.Usage) != nUsage {
			t.Fatalf("Decode kept %d events, %d usage rows; scanners saw %d, %d",
				len(tr.Events), len(tr.Usage), nEvents, nUsage)
		}

		m1, e1, u1 := encodeAll(t, tr)
		tr2, err := Decode(bytes.NewReader(m1), bytes.NewReader(e1), bytes.NewReader(u1))
		if err != nil {
			t.Fatalf("decode of re-encoded trace failed: %v", err)
		}
		if len(tr2.Machines) != len(tr.Machines) || len(tr2.Jobs) != len(tr.Jobs) || tr2.Horizon != tr.Horizon {
			t.Fatalf("re-decoded trace differs: %d/%d machines, %d/%d jobs, horizon %d/%d",
				len(tr2.Machines), len(tr.Machines), len(tr2.Jobs), len(tr.Jobs), tr2.Horizon, tr.Horizon)
		}
		m2, e2, u2 := encodeAll(t, tr2)
		if !bytes.Equal(m1, m2) || !bytes.Equal(e1, e2) || !bytes.Equal(u1, u2) {
			t.Fatalf("encoding is not a fixpoint:\n%q\n%q\n%q\nvs\n%q\n%q\n%q", m1, e1, u1, m2, e2, u2)
		}
	})
}
