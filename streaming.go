package doceph

import (
	"fmt"

	"doceph/internal/report"
)

// ---------------------------------------------------------------------------
// Streaming ablation: store-and-forward vs flow-controlled chunk pipelining
// for large objects, across credit-window sizes and both deployments.
//
// Store-and-forward (streaming off, the default) moves a large write as one
// monolithic frame: the whole object serializes through the messenger, then
// replication and the BlueStore WAL start, and on DoCeph the DPU proxy
// stages whole-transaction segments. Streaming splits the same write into
// ChunkBytes frames under a credit window: the OSD commits and fans out
// chunk k while chunk k+1 is still on the wire, and DPU staging is bounded
// by window x chunk instead of object size.

// StreamSizes are the object sizes of the streaming ablation — at and above
// the multi-MB regime where one object spans many DMA segments.
var StreamSizes = []int64{4 << 20, 16 << 20, 64 << 20}

// StreamWindows are the credit-window arms (chunks in flight per stream).
var StreamWindows = []int{2, 4, 8}

// StreamingResult is one row of the streaming ablation. Window 0 means
// store-and-forward (streaming off).
type StreamingResult struct {
	Name        string
	Mode        Mode
	ObjectBytes int64
	Window      int
	AvgLat      Duration
	P99         Duration
	MBps        float64
	HostUtil    float64
	// StreamWrites sums the OSDs' streamed-ingest counters (0 with
	// streaming off — the engagement check).
	StreamWrites int64
	// PeakStagingBytes is the max over nodes of the DPU proxy's staging
	// high-water mark (0 on Baseline). With streaming on it must stay
	// around window x chunk, far below the object size.
	PeakStagingBytes int64
}

// RunStreamingAblation measures large-object writes with streaming off
// (store-and-forward) and on at each credit window, on both deployments.
// The workload keeps a small closed loop so per-op pipelining — not
// cross-op concurrency — is what differentiates the arms.
func RunStreamingAblation(opts ExpOptions) ([]StreamingResult, error) {
	opts = opts.withDefaults()
	// Large objects + many closed-loop workers would swamp the fabric and
	// blur the per-op pipelining signal; cap the loop at 4 workers.
	if opts.Threads > 4 {
		opts.Threads = 4
	}

	var arms []arm
	for _, mode := range []Mode{Baseline, DoCeph} {
		for _, size := range StreamSizes {
			for _, w := range append([]int{0}, StreamWindows...) {
				a := arm{name: fmt.Sprintf("%v %dM store-fwd", mode, size>>20),
					cfg: ClusterConfig{Mode: mode}, bench: BenchConfig{ObjectBytes: size}}
				if w > 0 {
					a.name = fmt.Sprintf("%v %dM stream w=%d", mode, size>>20, w)
					a.cfg.Messenger.Stream.Enable = true
					a.cfg.Messenger.Stream.Window = w
				}
				arms = append(arms, a)
			}
		}
	}
	rs, err := runArms(opts, arms)
	if err != nil {
		return nil, err
	}
	out := make([]StreamingResult, len(rs))
	for i, r := range rs {
		a := arms[i]
		w := a.cfg.Messenger.Stream.Window
		if w > 0 && r.streamWrites == 0 {
			return nil, fmt.Errorf("streaming %q: streaming enabled but no streamed writes recorded", a.name)
		}
		if w == 0 && r.streamWrites != 0 {
			return nil, fmt.Errorf("streaming %q: store-and-forward arm recorded %d streamed writes",
				a.name, r.streamWrites)
		}
		out[i] = StreamingResult{
			Name: a.name, Mode: a.cfg.Mode, ObjectBytes: a.bench.ObjectBytes, Window: w,
			AvgLat:           r.bench.AvgLatency,
			P99:              r.bench.P99,
			MBps:             r.bench.ThroughputBps() / 1e6,
			HostUtil:         r.hostUtil,
			StreamWrites:     r.streamWrites,
			PeakStagingBytes: r.peakStaging,
		}
	}
	return out, nil
}

// StreamingTable renders the streaming ablation.
func StreamingTable(rows []StreamingResult) *report.Table {
	t := &report.Table{
		Title: "Streaming data plane: store-and-forward vs chunk pipelining (writes)",
		Header: []string{"variant", "avg lat (ms)", "p99 (ms)", "MB/s",
			"host CPU", "streamed", "peak staging"},
	}
	for _, r := range rows {
		peak := "-"
		if r.PeakStagingBytes > 0 {
			peak = report.MB(r.PeakStagingBytes)
		}
		t.AddRow(r.Name,
			report.F2(r.AvgLat.Seconds()*1e3),
			report.F2(r.P99.Seconds()*1e3),
			report.F2(r.MBps),
			report.Pct(r.HostUtil),
			fmt.Sprint(r.StreamWrites), peak)
	}
	t.AddNote("stream w=N: 2MiB chunks (one DMA segment each) under an N-chunk credit window (off by default); peak staging = DPU staging-buffer high-water mark — bounded by window x chunk when streaming, by object size when not")
	return t
}
