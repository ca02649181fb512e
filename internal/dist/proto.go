// Control-plane messages of the distributed runtime. Control frames carry
// JSON — they are rare (handshake, per-run stats, failures), so
// readability wins over packing; the bulk traffic stays binary.
package dist

import (
	"encoding/json"
	"errors"
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
// first chunk for its whole shard. Version 6 made a run one pass: the
// config carries no round count, and chunks are cut in whole batch tiles,
// which a version-5 worker's buffer may not hold.
const protoVersion = 6

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
	LocalWorkers int      `json:"local_workers,omitempty"`
}

// errBadConfig marks a config a worker cannot run.
var errBadConfig = errors.New("dist: bad config")

// check refuses a config whose tree position or shard shape cannot be run,
// so a malformed coordinator gets an error, never a worker panic. The
// stream checks n, nb and ib itself.
func (c *wireConfig) check() error {
	if c.Rank < 0 || c.Rank >= c.Workers || len(c.Peers) != c.Workers || c.ShardRows < 1 || c.NRHS < 0 {
		return fmt.Errorf("%w: rank %d of %d workers, %d peers, %d shard rows, %d right-hand sides",
			errBadConfig, c.Rank, c.Workers, len(c.Peers), c.ShardRows, c.NRHS)
	}
	return nil
}

// errMsg carries a worker-side failure to the coordinator.
type errMsg struct {
	Rank  int    `json:"rank"`
	Error string `json:"error"`
}

// WorkerStats is one worker's accounting of a run, reported to the
// coordinator in its Stats frame and aggregated into RunStats.
type WorkerStats struct {
	Rank       int   `json:"rank"`
	ShardRows  int   `json:"shard_rows"`
	ComputeNS  int64 `json:"compute_ns"`   // shard appends: local factor of [A b]
	CombineNS  int64 `json:"combine_ns"`   // merges of the children's aggregates
	SendNS     int64 `json:"send_ns"`      // writing the aggregate to the parent or coordinator
	RecvWaitNS int64 `json:"recv_wait_ns"` // waiting on shard chunks and the children's frames
	WallNS     int64 `json:"wall_ns"`      // first shard chunk to the aggregate sent
	BytesSent  int64 `json:"bytes_sent"`   // peer hello and aggregate frames
	BytesRecv  int64 `json:"bytes_recv"`   // the children's hello and aggregate frames
}

// RunStats is the coordinator's aggregate over all workers of one run.
type RunStats struct {
	Workers    int           `json:"workers"`
	BytesSent  int64         `json:"bytes_sent"`
	BytesRecv  int64         `json:"bytes_recv"`
	ComputeNS  int64         `json:"compute_ns"`
	CombineNS  int64         `json:"combine_ns"`
	SendNS     int64         `json:"send_ns"`
	RecvWaitNS int64         `json:"recv_wait_ns"`
	WallNS     int64         `json:"wall_ns"` // max over workers
	PerWorker  []WorkerStats `json:"per_worker"`

	// OverlapFrac is always 0: a run is one pass, with no later round for
	// the wire time to hide behind. It stays only because the benchmark
	// harness reads it, and goes with Yardstick v2a (a).
	OverlapFrac float64 `json:"overlap_frac"`
}

// aggregate folds the per-worker stats into the run totals.
func aggregate(per []WorkerStats) RunStats {
	agg := RunStats{Workers: len(per), PerWorker: per}
	for i := range per {
		s := &per[i]
		agg.BytesSent += s.BytesSent
		agg.BytesRecv += s.BytesRecv
		agg.ComputeNS += s.ComputeNS
		agg.CombineNS += s.CombineNS
		agg.SendNS += s.SendNS
		agg.RecvWaitNS += s.RecvWaitNS
		agg.WallNS = max(agg.WallNS, s.WallNS)
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
