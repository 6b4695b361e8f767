package engine

import (
	"fmt"
	"sync"
	"time"

	"rpdbscan/internal/frame"
)

// payloadChunkSize is the transfer granularity of checksummed payloads:
// corruption is injected, detected, and re-fetched per chunk, so one
// flipped byte costs one chunk re-transfer, not the whole broadcast.
const payloadChunkSize = 64 << 10

// Payload is a broadcast payload with per-chunk checksums, the unit the
// fault injector is allowed to corrupt in flight. The driver-side copy
// held here is pristine; Fetch materialises (and verifies) each consumer's
// view of the transfer.
type Payload struct {
	stage string
	phase string
	data  []byte

	once sync.Once
	sums []uint64
}

// Bytes returns the driver's pristine copy of the payload.
func (p *Payload) Bytes() []byte { return p.data }

// Len returns the payload size in bytes.
func (p *Payload) Len() int { return len(p.data) }

// numChunks returns the chunk count for a payload of n bytes.
func numChunks(n int) int { return (n + payloadChunkSize - 1) / payloadChunkSize }

// checksums lazily computes the per-chunk FNV-1a checksums, so a run with
// no injector never pays for them.
func (p *Payload) checksums() []uint64 {
	p.once.Do(func() {
		n := numChunks(len(p.data))
		p.sums = make([]uint64, n)
		for c := 0; c < n; c++ {
			lo, hi := chunkBounds(c, len(p.data))
			p.sums[c] = frame.Sum64(p.data[lo:hi])
		}
	})
	return p.sums
}

func chunkBounds(chunk, n int) (lo, hi int) {
	lo = chunk * payloadChunkSize
	hi = lo + payloadChunkSize
	if hi > n {
		hi = n
	}
	return lo, hi
}

// NewPayload wraps already-produced bytes as a checksummed payload without
// recording a broadcast stage — the transport push path, where the stage
// accounting happens in PushStage instead. stage keys the deterministic
// chaos schedule for the transfer.
func NewPayload(phase, stage string, data []byte) *Payload {
	return &Payload{stage: stage, phase: phase, data: data}
}

// BroadcastChecked is Broadcast plus per-chunk checksums: the returned
// Payload is what worker tasks Fetch, giving the fault injector a shuffle
// surface to corrupt and the engine the means to detect it.
func (c *Cluster) BroadcastChecked(phase, name string, produce func() []byte) *Payload {
	data := c.Broadcast(phase, name, produce)
	return &Payload{stage: name, phase: phase, data: data}
}

// Fetch returns task's view of a checksummed payload, called from inside a
// running stage's task body. With no Injector installed the transfer is
// free: the shared driver copy is returned after a single nil check. With
// an Injector, the transfer is simulated chunk by chunk: the injector may
// corrupt the transferred copy of a chunk, the engine verifies the chunk
// checksum, and a mismatch rejects the chunk and re-transfers it (with
// virtual backoff charged to the calling task's cost), up to
// MaxTaskRetries times. Rejections are accounted in the running stage's
// FaultStats. The error is non-nil only when a chunk stays corrupt after
// the full retry budget.
func (c *Cluster) Fetch(p *Payload, task int) ([]byte, error) {
	inj := c.Injector
	if inj == nil {
		return p.data, nil
	}
	sums := p.checksums()
	out := make([]byte, len(p.data))
	retries := c.MaxTaskRetries
	if retries <= 0 {
		retries = 2
	}
	acc := c.cur.Load()
	for chunk := 0; chunk < numChunks(len(p.data)); chunk++ {
		lo, hi := chunkBounds(chunk, len(p.data))
		var ok bool
		for attempt := 0; attempt <= retries; attempt++ {
			copy(out[lo:hi], p.data[lo:hi])
			if inj.CorruptFetch(p.stage, task, attempt, chunk) {
				out[lo] ^= 0x80 // one flipped bit on the wire
			}
			if frame.Sum64(out[lo:hi]) == sums[chunk] {
				ok = true
				break
			}
			if acc != nil {
				acc.rejects.Add(1)
				if attempt < retries {
					wait := c.backoffFor(p.stage, task, attempt)
					acc.backoff.Add(int64(wait))
					if task >= 0 && task < len(acc.extra) {
						acc.extra[task].Add(int64(wait))
					}
				}
			}
			if c.Sink != nil {
				c.emit(Event{Kind: EventChecksumReject, Stage: acc.stageName(p.stage),
					Phase: p.phase, Task: task, Attempt: attempt, Chunk: chunk,
					Time: time.Now(), Bytes: int64(hi - lo)})
			}
		}
		if !ok {
			return nil, fmt.Errorf("engine: payload %q chunk %d corrupt after %d transfer attempts",
				p.stage, chunk, retries+1)
		}
	}
	return out, nil
}

// stageName returns the running stage's name, falling back to the payload
// stage when Fetch is called outside any stage.
func (a *faultAccum) stageName(fallback string) string {
	if a == nil {
		return fallback
	}
	return a.stage
}

// PayloadChunkSize is the transfer granularity of checksummed payloads,
// exported for transports that frame pushes chunk by chunk.
const PayloadChunkSize = payloadChunkSize

// NumChunks returns the payload's chunk count.
func (p *Payload) NumChunks() int { return numChunks(len(p.data)) }

// Chunk returns the bytes of chunk i (aliasing the pristine driver copy).
func (p *Payload) Chunk(i int) []byte {
	lo, hi := chunkBounds(i, len(p.data))
	return p.data[lo:hi]
}

// ChunkSum returns the FNV-1a checksum of chunk i.
func (p *Payload) ChunkSum(i int) uint64 { return p.checksums()[i] }

// Stage returns the stage name the payload was broadcast under (the key
// deterministic injectors corrupt against).
func (p *Payload) Stage() string { return p.stage }
