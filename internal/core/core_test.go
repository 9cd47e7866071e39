package core

import (
	"strings"
	"testing"
	"time"

	"lockdown/internal/flowrec"
	"lockdown/internal/synth"
)

// quick returns cheap options for flow-heavy experiments; all assertions
// are on relative quantities, which are insensitive to the sampling
// density.
func quick() Options { return Options{FlowScale: 0.15} }

func run(t *testing.T, id string, opts Options) *Result {
	t.Helper()
	res, err := Run(id, opts)
	if err != nil {
		t.Fatalf("experiment %s: %v", id, err)
	}
	if res.ID != id {
		t.Fatalf("result ID = %q, want %q", res.ID, id)
	}
	if len(res.Tables) == 0 {
		t.Fatalf("experiment %s produced no tables", id)
	}
	return res
}

func TestRegistryComplete(t *testing.T) {
	wanted := []string{
		"fig1", "fig2a", "fig2bc", "fig3a", "fig3b", "fig4", "fig5", "fig6",
		"fig7a", "fig7b", "tab1", "fig8", "fig9", "fig10", "fig11a", "fig11b",
		"fig12", "tab2", "appB", "ablation-vpn", "ablation-binsize",
	}
	for _, id := range wanted {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) < len(wanted) {
		t.Errorf("registry has %d experiments, want at least %d", len(All()), len(wanted))
	}
	for _, e := range All() {
		if e.Artifact == "" || e.Title == "" || e.Run == nil {
			t.Errorf("experiment %q incompletely described", e.ID)
		}
	}
	if _, err := Run("no-such-figure", quick()); err == nil {
		t.Error("unknown experiment should error")
	}
}

// TestPaperOrderListsEveryExperiment: All walks paperOrder alone, so an
// experiment registered but not listed there would vanish from every
// command, and one listed twice would run twice.
func TestPaperOrderListsEveryExperiment(t *testing.T) {
	listed := map[string]int{}
	for _, id := range paperOrder {
		listed[id]++
		if _, ok := registry[id]; !ok {
			t.Errorf("paperOrder lists %q, which is not registered", id)
		}
	}
	for id := range registry {
		if listed[id] != 1 {
			t.Errorf("paperOrder lists %q %d times, want once", id, listed[id])
		}
	}
}

func TestResultsRenderableAndNoted(t *testing.T) {
	res := run(t, "fig3a", quick())
	if len(res.Notes) == 0 {
		t.Error("experiments should record narrative notes")
	}
	for _, tbl := range res.Tables {
		if len(tbl.Columns) == 0 || len(tbl.Rows) == 0 {
			t.Errorf("table %q is empty", tbl.Title)
		}
		for _, row := range tbl.Rows {
			if len(row) != len(tbl.Columns) {
				t.Errorf("table %q has a row with %d cells, want %d", tbl.Title, len(row), len(tbl.Columns))
			}
		}
	}
}

func TestDatasetRespectsOptions(t *testing.T) {
	d := NewDataset(Options{FlowScale: 0.2, Seed: 77})
	if _, err := d.Generator(synth.ISPCE); err != nil {
		t.Fatal(err)
	}
	day := time.Date(2020, 2, 20, 0, 0, 0, 0, time.UTC)
	// The seed and flow-scale overrides reach the flows: the dataset's day
	// is the one a generator built with them draws, in the dataset's
	// column set, and the pieces it streams of hour 20 are that
	// generator's hour.
	hour := day.Add(20 * time.Hour)
	k := FlowKey{Kind: KindFlows, VP: synth.ISPCE, Hour: DayOf(hour)}
	got, err := flowBatch(d, synth.ISPCE, hour)
	if err != nil {
		t.Fatal(err)
	}
	cfg := synth.DefaultConfig(synth.ISPCE)
	cfg.Seed, cfg.FlowScale = 77, 0.2
	ref, err := synth.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.FlowsBetweenBatch(day, day.AddDate(0, 0, 1)).Project(k.Columns())
	if got.Len() == 0 || !got.Equal(want) {
		t.Errorf("dataset day (%d rows) differs from the seed-77 generator's (%d rows)", got.Len(), want.Len())
	}
	streamed := flowrec.NewProjected(0, k.Columns())
	if _, _, err := d.stream(k, func(h int, piece *flowrec.Batch) {
		if h == 20 {
			streamed.AppendBatch(piece)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if want := ref.FlowsForHourBatch(hour).Project(k.Columns()); streamed.Len() == 0 || !streamed.Equal(want) {
		t.Errorf("dataset hour (%d rows) differs from the seed-77 generator's (%d rows)", streamed.Len(), want.Len())
	}
	s, err := d.Series(synth.ISPCE, day, day.AddDate(0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s.Name, "ISP-CE") {
		t.Error("series naming should mention the vantage point")
	}
	if s.Len() != 24 {
		t.Errorf("one-day series has %d points, want 24", s.Len())
	}
}
