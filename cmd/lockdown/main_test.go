package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lockdown/internal/flowrec"
	"lockdown/internal/flowstore"
	"lockdown/internal/replay"
	"lockdown/internal/report"
	"lockdown/internal/synth"
)

// TestCacheStatKilledRun: a spill directory left by a killed run holds
// sealed files and one the writer never sealed. `cache stat` verifies
// the sealed ones span by span, lists the unsealed one as bad and fails
// with the count — it does not panic on the headerless file.
func TestCacheStatKilledRun(t *testing.T) {
	dir := t.TempDir()
	b := flowrec.NewBatch(1)
	b.Append(flowrec.Record{SrcPort: 443, Bytes: 1500, Packets: 1})
	for i, name := range []string{"spill-000001", "spill-000002"} {
		sf, err := flowstore.Create(filepath.Join(dir, name+flowstore.SpannedExt))
		if err != nil {
			t.Fatal(err)
		}
		defer sf.Close()
		if _, err := sf.Append(b); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if err := sf.Seal(); err != nil {
				t.Fatal(err)
			}
			if err := run(context.Background(), []string{"cache", "stat", dir}); err != nil {
				t.Fatalf("a directory of sealed files must stat clean: %v", err)
			}
		}
	}
	err := run(context.Background(), []string{"cache", "stat", dir})
	if err == nil || !strings.Contains(err.Error(), "1 bad") {
		t.Fatalf("cache stat with an unsealed file = %v, want a 1-bad-file error", err)
	}
	if err := run(context.Background(), []string{"cache", "compact", dir}); err == nil {
		t.Fatal("cache compact is gone and must be refused")
	}

	// A sealed file of the previous format version (every span full-width,
	// index entries without a column set) is counted bad, not misread.
	sealed := filepath.Join(dir, "spill-000001"+flowstore.SpannedExt)
	raw, err := os.ReadFile(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if raw[4] != 4 {
		t.Fatalf("header version byte = %d, want 4", raw[4])
	}
	raw[4] = 3
	if err := os.WriteFile(sealed, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(context.Background(), []string{"cache", "stat", dir})
	if err == nil || !strings.Contains(err.Error(), "2 bad") {
		t.Fatalf("cache stat with an unsealed and a version-3 file = %v, want a 2-bad-files error", err)
	}
}

// TestReplayEventsListEveryStream: the replay summary carries the bridge
// totals, one indented line per vantage-point stream (idle ones included,
// so a stream that served nothing is visible as such) and a single pump
// line holding the counters summed over all streams.
func TestReplayEventsListEveryStream(t *testing.T) {
	snap := replay.Snapshot{
		Total: replay.Stats{Keys: 30, Rows: 600, Retries: 1, LostRows: 7},
		Streams: map[uint32]replay.Stats{
			0: {Keys: 10, Rows: 200},
			6: {Keys: 20, Rows: 400, Retries: 1, LostRows: 7},
		},
	}
	var out strings.Builder
	if err := report.WriteEvents(&out, replayEvents(snap, replay.PumpStats{Requests: 31, RowsSent: 607})); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	vps := synth.AllVantagePoints()
	if len(lines) != len(vps)+2 {
		t.Fatalf("%d lines, want the bridge, %d streams and the pumps:\n%s", len(lines), len(vps), out.String())
	}
	for _, want := range []struct {
		line int
		text string
	}{
		{0, "wire bridge: 30 buckets, 600 rows verified, 1 retries, 7 rows lost"},
		{1, "  stream 0 (ISP-CE): 10 buckets, 200 rows, 0 retries, 0 rows lost"},
		{2, "  stream 1 (IXP-CE): 0 buckets, 0 rows"},
		{7, "  stream 6 (EDU): 20 buckets, 400 rows, 1 retries, 7 rows lost"},
		{8, "wire pump: 31 requests, 607 rows exported, 0 nacks"},
	} {
		if !strings.HasPrefix(lines[want.line], want.text) {
			t.Errorf("line %d = %q, want prefix %q", want.line, lines[want.line], want.text)
		}
	}
}

// TestScaleFlagRejected: a -scale that is NaN, infinite or negative is a
// usage error (exit 2) in every mode that takes the flag, raised before
// the scenario file is opened or an engine built; 0 still selects the
// default density.
func TestScaleFlagRejected(t *testing.T) {
	modes := [][]string{
		{"run", "fig9"}, {"all"}, {"doc"}, {"replay"}, {"cluster"},
		{"scenario", "run", filepath.Join(t.TempDir(), "never-opened.yaml")},
	}
	for _, mode := range modes {
		for _, v := range []string{"NaN", "+Inf", "-Inf", "-0.5"} {
			args := append(append([]string(nil), mode...), "-scale="+v)
			err := run(context.Background(), args)
			var ue usageError
			if !errors.As(err, &ue) || !strings.Contains(err.Error(), "-scale") {
				t.Errorf("%v = %v, want a -scale usage error", args, err)
			}
		}
	}

	stdout := os.Stdout
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = null
	defer func() { os.Stdout = stdout; null.Close() }()
	if err := run(context.Background(), []string{"run", "fig3a", "-scale", "0"}); err != nil {
		t.Errorf("-scale 0 selects the default and must run: %v", err)
	}
}
