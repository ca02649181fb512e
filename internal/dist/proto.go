// Control-plane messages of the distributed runtime. Control frames carry
// JSON — they are rare (handshake, per-run stats, failures), so
// readability wins over packing; the per-round bulk traffic stays binary.
package dist

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"time"
)

// protoVersion gates the handshake: a coordinator and worker from
// different builds fail loudly at connect instead of corrupting frames.
// Version 2 dropped worker-side shard generation (a seed in the config):
// every worker now waits for a shard frame, which a version-1 coordinator
// in that mode never sends. Version 3 dropped the round-credit frames: a
// version-2 worker would wait forever for an allowance. Version 4 made a
// round one aggregate frame per tree edge and renumbered the frame kinds.
// Version 5 shards arrive in chunks: a version-4 worker would take the
// first chunk for its whole shard.
const protoVersion = 5

// helloMsg is the worker's opening frame: its protocol version and the
// address its peer listener accepts reduction-tree connections on.
type helloMsg struct {
	Proto    int    `json:"proto"`
	PeerAddr string `json:"peer_addr"`
}

// wireConfig is the coordinator's reply: everything a worker needs to run
// its shard — rank, the peer table for the reduction tree, and the shard
// shape. Each worker streams its shard into a stream.Core (flat tree, TS
// kernels) and merges aggregates with TT kernels.
type wireConfig struct {
	Proto        int      `json:"proto"`
	Rank         int      `json:"rank"`
	Workers      int      `json:"workers"`
	Peers        []string `json:"peers"`
	Prec         string   `json:"prec"`
	ShardRows    int      `json:"shard_rows"`
	N            int      `json:"n"`
	NRHS         int      `json:"nrhs"`
	NB           int      `json:"nb"`
	IB           int      `json:"ib"`
	Rounds       int      `json:"rounds"`
	LocalWorkers int      `json:"local_workers,omitempty"`
}

// errMsg carries a worker-side failure to the coordinator.
type errMsg struct {
	Rank  int    `json:"rank"`
	Error string `json:"error"`
}

// WorkerStats is one worker's per-run accounting, reported to the
// coordinator in the final Stats frame and aggregated into RunStats.
// ComputeNS + CommNS exceeding WallNS means communication was hidden
// behind the next round's shard append, which needs Rounds > 1.
type WorkerStats struct {
	Rank       int   `json:"rank"`
	Rounds     int   `json:"rounds"`
	ShardRows  int   `json:"shard_rows"`
	ComputeNS  int64 `json:"compute_ns"`   // shard appends: local factor of [A b]
	CombineNS  int64 `json:"combine_ns"`   // merges of the children's aggregates
	SendNS     int64 `json:"send_ns"`      // writer goroutines blocked in Write
	RecvWaitNS int64 `json:"recv_wait_ns"` // waiting on shard chunks and partner frames
	WallNS     int64 `json:"wall_ns"`      // first shard chunk to the last round's end
	BytesSent  int64 `json:"bytes_sent"`
	BytesRecv  int64 `json:"bytes_recv"`
}

// CommNS is the worker's total time attributable to communication: send
// plus receive-wait.
func (s *WorkerStats) CommNS() int64 { return s.SendNS + s.RecvWaitNS }

// OverlapFrac is the fraction of the worker's communication time hidden
// behind computation, in [0, 1]: 1 means the wire was entirely off the
// critical path, 0 means every wire nanosecond extended the wall clock.
func (s *WorkerStats) OverlapFrac() float64 {
	comm := s.CommNS()
	if comm <= 0 {
		return 0
	}
	hidden := s.ComputeNS + s.CombineNS + comm - s.WallNS
	if hidden < 0 {
		hidden = 0
	}
	f := float64(hidden) / float64(comm)
	if f > 1 {
		f = 1
	}
	return f
}

// RunStats is the coordinator's aggregate over all workers of one run.
type RunStats struct {
	Workers     int           `json:"workers"`
	Rounds      int           `json:"rounds"`
	BytesSent   int64         `json:"bytes_sent"`
	BytesRecv   int64         `json:"bytes_recv"`
	ComputeNS   int64         `json:"compute_ns"`
	CombineNS   int64         `json:"combine_ns"`
	SendNS      int64         `json:"send_ns"`
	RecvWaitNS  int64         `json:"recv_wait_ns"`
	WallNS      int64         `json:"wall_ns"`      // max over workers
	OverlapFrac float64       `json:"overlap_frac"` // mean over workers that communicated
	PerWorker   []WorkerStats `json:"per_worker"`
}

// aggregate folds the per-worker stats into the run totals.
func aggregate(per []WorkerStats, rounds int) RunStats {
	agg := RunStats{Workers: len(per), Rounds: rounds, PerWorker: per}
	var overlapSum float64
	var overlapN int
	for i := range per {
		s := &per[i]
		agg.BytesSent += s.BytesSent
		agg.BytesRecv += s.BytesRecv
		agg.ComputeNS += s.ComputeNS
		agg.CombineNS += s.CombineNS
		agg.SendNS += s.SendNS
		agg.RecvWaitNS += s.RecvWaitNS
		if s.WallNS > agg.WallNS {
			agg.WallNS = s.WallNS
		}
		if s.CommNS() > 0 {
			overlapSum += s.OverlapFrac()
			overlapN++
		}
	}
	if overlapN > 0 {
		agg.OverlapFrac = overlapSum / float64(overlapN)
	}
	return agg
}

// writeJSON sends a control frame whose payload is v marshaled as JSON.
func writeJSON(w io.Writer, kind byte, seq uint32, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = WriteFrame(w, &Frame{Kind: kind, Seq: seq, Payload: raw})
	return err
}

// readJSON reads one frame, requires the expected kind, and unmarshals its
// JSON payload into v. An Err frame is surfaced as the carried error.
func readJSON(r io.Reader, buf []byte, want byte, v any) ([]byte, error) {
	f, buf, err := ReadFrame(r, buf)
	if err != nil {
		return buf, err
	}
	if f.Kind == KindErr {
		var em errMsg
		if json.Unmarshal(f.Payload, &em) == nil {
			return buf, fmt.Errorf("dist: worker %d failed: %s", em.Rank, em.Error)
		}
	}
	if f.Kind != want {
		return buf, fmt.Errorf("dist: expected frame kind %d, got %d", want, f.Kind)
	}
	return buf, json.Unmarshal(f.Payload, v)
}

// setDeadline applies d from now when the conn supports deadlines; the
// handshake paths use it so a stuck peer fails the run instead of hanging
// it.
func setDeadline(c net.Conn, d time.Duration) {
	if d > 0 {
		_ = c.SetDeadline(time.Now().Add(d))
	} else {
		_ = c.SetDeadline(time.Time{})
	}
}
