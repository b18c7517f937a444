package swf

import (
	"bytes"
	"maps"
	"slices"
	"testing"

	"repro/internal/trace"
)

// encode writes header lines and records in format f.
func encode(t testing.TB, f Format, header map[string]string, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, f)
	keys := make([]string, 0, len(header))
	for k := range header {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		if err := w.Header(k + ": " + header[k]); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzRead feeds arbitrary archive text to both readers in both
// formats. Neither may panic; ReadJobs must agree with ReadWithHeader
// on what it accepts; and whatever is accepted must re-encode to a
// fixpoint: writing the parsed header and records, reading them back
// and writing again yields the same bytes.
func FuzzRead(f *testing.F) {
	jobs := []trace.Job{
		{ID: 1, Submit: 0, End: 100, NumCPUs: 1, CPUTime: 90},
		{ID: 2, Submit: 50, End: 50, NumCPUs: 2},
		{ID: 3, Submit: 60, End: 400, NumCPUs: 16, CPUTime: 5000},
	}
	var jobsText bytes.Buffer
	w := NewWriter(&jobsText, SWF)
	if err := w.WriteJobs(jobs); err != nil {
		f.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	r2 := sampleRecord()
	r2.JobID, r2.SubmitTime = 2, 500
	for _, seed := range []struct {
		data []byte
		gwa  bool
	}{
		{encode(f, SWF, map[string]string{"Computer": "TestCluster", "MaxJobs": "2"}, []Record{sampleRecord(), r2}), false},
		{encode(f, GWA, map[string]string{"gwa-format": "GWA-T"}, []Record{sampleRecord()}), true},
		{jobsText.Bytes(), false},
		{[]byte("; Computer: AuverGrid\n; JustWords\n# UnixStartTime: 1143068401\n" +
			"1 0 0 60 1 -1.00 -1.00 1 -1 -1.00 1 -1 -1 -1 -1 -1 -1 -1\n"), false},
		{[]byte("5 10 1 30 4 25.0 512 4 60 1024 1\n"), true},
		{[]byte("1 0 0 60 1 bad -1 1 -1 -1 1\n"), false},
		{[]byte("1 2 3\n"), true},
	} {
		f.Add(seed.data, seed.gwa)
	}
	f.Fuzz(func(t *testing.T, data []byte, gwa bool) {
		format := SWF
		if gwa {
			format = GWA
		}
		recs, header, err := ReadWithHeader(bytes.NewReader(data), format)
		all, jerr := ReadJobs(bytes.NewReader(data), format, true)
		ran, rerr := ReadJobs(bytes.NewReader(data), format, false)
		if (err == nil) != (jerr == nil) || (err == nil) != (rerr == nil) {
			t.Fatalf("readers disagree: ReadWithHeader %v, ReadJobs(all) %v, ReadJobs %v", err, jerr, rerr)
		}
		if err != nil {
			return
		}
		positive := 0
		for _, r := range recs {
			if r.RunTime > 0 {
				positive++
			}
		}
		if len(all) != len(recs) || len(ran) != positive {
			t.Fatalf("ReadJobs kept %d/%d of %d records (%d with positive run time)",
				len(all), len(ran), len(recs), positive)
		}
		for k := range header {
			if k == "" {
				t.Fatal("empty header key accepted")
			}
		}

		first := encode(t, format, header, recs)
		recs2, header2, err := ReadWithHeader(bytes.NewReader(first), format)
		if err != nil {
			t.Fatalf("re-read of encoded records failed: %v\n%q", err, first)
		}
		if len(recs2) != len(recs) {
			t.Fatalf("re-read %d records, want %d", len(recs2), len(recs))
		}
		if !maps.Equal(header, header2) {
			t.Fatalf("header changed on re-read: %q -> %q", header, header2)
		}
		if second := encode(t, format, header2, recs2); !bytes.Equal(first, second) {
			t.Fatalf("encoding is not a fixpoint:\n%q\n%q", first, second)
		}
	})
}
