package serve

import (
	"fmt"
	"net/http"
	"testing"
)

// The decoder request field must round-trip into every streamed CellRecord
// for both sweep types and both kinds.
func TestDecoderSelectionRoundTrips(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		body string
		want string
	}{
		{`{"scheme":"baseline","distances":[3],"rates":[0.008],"trials":200,"seed":3}`, "uf"},
		{`{"scheme":"baseline","distances":[3],"rates":[0.008],"trials":200,"seed":3,"decoder":"blossom"}`, "blossom"},
		{`{"type":"sensitivity","panel":"cavity-t1","distances":[3],"values":[0.001],"trials":200,"decoder":"blossom"}`, "blossom"},
	}
	for _, tc := range cases {
		resp := postSweep(t, ts, "/v1/sweeps", tc.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %s: HTTP %d", tc.body, resp.StatusCode)
		}
		cells, status := readStream(t, resp)
		if status.State != StateDone {
			t.Fatalf("decoder %q: job ended %q", tc.want, status.State)
		}
		if len(cells) == 0 {
			t.Fatalf("decoder %q: no cells streamed", tc.want)
		}
		for _, c := range cells {
			if c.Decoder != tc.want {
				t.Errorf("decoder %q: cell %d reports decoder %q", tc.want, c.Index, c.Decoder)
			}
			if c.Error != "" {
				t.Errorf("decoder %q: cell %d errored: %s", tc.want, c.Index, c.Error)
			}
		}
	}
}

// An unknown decoder kind is a client error for both sweep types.
func TestUnknownDecoderRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	bodies := []string{
		`{"scheme":"baseline","distances":[3],"decoder":"union-find"}`,
		`{"scheme":"baseline","distances":[3],"decoder":"sparse"}`,
		`{"type":"sensitivity","panel":"cavity-t1","decoder":"nope"}`,
	}
	for _, body := range bodies {
		resp := postSweep(t, ts, "/v1/sweeps", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %s: HTTP %d, want 400", body, resp.StatusCode)
		}
	}
}

// Decoder choice is a noise-model-independent concern: sweeping the same
// grid under different decoder kinds shares one cached structure, so
// /v1/stats must show hits growing and builds flat after the first kind.
func TestStatsCacheHitsAcrossDecoderKinds(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var afterFirst int64
	for i, dec := range []string{"uf", "blossom"} {
		body := fmt.Sprintf(`{"scheme":"baseline","distances":[3],"rates":[0.004,0.008],"trials":200,"seed":9,"decoder":%q}`, dec)
		resp := postSweep(t, ts, "/v1/sweeps", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %s: HTTP %d", dec, resp.StatusCode)
		}
		if _, status := readStream(t, resp); status.State != StateDone {
			t.Fatalf("%s sweep ended %q", dec, status.State)
		}
		st := getStats(t, ts)
		if i == 0 {
			afterFirst = st.Engine.Builds
			if afterFirst == 0 {
				t.Fatal("first sweep performed no structure builds")
			}
			continue
		}
		if st.Engine.Builds != afterFirst {
			t.Errorf("after %s sweep: builds %d, want the first sweep's %d (decoder kinds share structures)",
				dec, st.Engine.Builds, afterFirst)
		}
		if st.Engine.Hits == 0 {
			t.Errorf("after %s sweep: no cache hits reported", dec)
		}
	}
}
