package obs

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// TestWritePrometheusGolden pins the exact exposition bytes of a
// registry covering every instrument shape: counter, func-backed gauge, a
// labelled vec and a histogram. The format is deterministic
// (families sorted by name, series by label value), so the golden string
// is stable.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("lockdown_a_total", "Things counted.").Add(3)
	r.GaugeFunc("lockdown_c", "Read at scrape.", func() float64 { return 1.5 })
	vec := r.CounterVec("lockdown_d_total", "Per-stream things.", "stream")
	vec.With("1").Add(10)
	vec.With("0").Add(4)
	h := r.Histogram("lockdown_e_seconds", "Latencies with \"quotes\".", []float64{0.5, 2})
	h.Observe(0.1)
	h.Observe(1)
	h.Observe(99)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP lockdown_a_total Things counted.
# TYPE lockdown_a_total counter
lockdown_a_total 3
# HELP lockdown_c Read at scrape.
# TYPE lockdown_c gauge
lockdown_c 1.5
# HELP lockdown_d_total Per-stream things.
# TYPE lockdown_d_total counter
lockdown_d_total{stream="0"} 4
lockdown_d_total{stream="1"} 10
# HELP lockdown_e_seconds Latencies with "quotes".
# TYPE lockdown_e_seconds histogram
lockdown_e_seconds_bucket{le="0.5"} 1
lockdown_e_seconds_bucket{le="2"} 2
lockdown_e_seconds_bucket{le="+Inf"} 3
lockdown_e_seconds_sum 100.1
lockdown_e_seconds_count 3
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestServeScrapeWhileRunning starts the HTTP server on an ephemeral
// port and scrapes /metrics while writers hammer the registry,
// checking status, content type and that the self-metrics plus a hot
// counter appear in the body.
func TestServeScrapeWhileRunning(t *testing.T) {
	reg := NewRegistry()
	hot := reg.Counter("lockdown_hot_total", "Incremented during the scrape.")
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					hot.Add(1)
				}
			}
		}()
	}
	defer func() { close(stop); wg.Wait() }()

	for i := 0; i < 10; i++ {
		resp, err := http.Get(fmt.Sprintf("http://%s/metrics", srv.Addr()))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scrape %d: status %d", i, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
			t.Fatalf("scrape %d: content type %q", i, ct)
		}
		for _, family := range []string{"lockdown_hot_total", "lockdown_goroutines", "lockdown_uptime_seconds"} {
			if !strings.Contains(string(body), family) {
				t.Fatalf("scrape %d: family %s missing from body:\n%s", i, family, body)
			}
		}
	}
}
