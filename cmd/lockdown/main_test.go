package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lockdown/internal/flowrec"
	"lockdown/internal/flowstore"
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
