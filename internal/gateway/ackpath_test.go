package gateway

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"repro/internal/types"
)

// TestFrameEncodingInPlace pins the in-place encoders: Hello, HelloOK
// and Ack are byte-identical to the generic framed encoding, and a run
// of acks appended into a preallocated buffer allocates nothing.
func TestFrameEncodingInPlace(t *testing.T) {
	body := binary.LittleEndian.AppendUint32(nil, helloMagic)
	body = append(body, protoVersion)
	body = binary.LittleEndian.AppendUint64(body, 42)
	if got, want := appendHello(nil, 42), appendFrame(nil, frameHello, body); !bytes.Equal(got, want) {
		t.Fatalf("hello = %x, want %x", got, want)
	}
	body = binary.LittleEndian.AppendUint32(nil, 64)
	body = binary.LittleEndian.AppendUint32(body, 4096)
	if got, want := appendHelloOK(nil, 64, 4096), appendFrame(nil, frameHelloOK, body); !bytes.Equal(got, want) {
		t.Fatalf("helloOK = %x, want %x", got, want)
	}
	body = binary.LittleEndian.AppendUint64(nil, 7)
	body = append(body, StatusBusy)
	body = binary.LittleEndian.AppendUint32(body, 250)
	ack := appendAck(nil, 7, StatusBusy, 250)
	if want := appendFrame(nil, frameAck, body); !bytes.Equal(ack, want) {
		t.Fatalf("ack = %x, want %x", ack, want)
	}
	if len(ack) != ackFrameLen {
		t.Fatalf("ack frame is %d bytes, ackFrameLen says %d", len(ack), ackFrameLen)
	}

	const run = 64
	buf := make([]byte, 0, run*ackFrameLen)
	allocs := testing.AllocsPerRun(100, func() {
		b := buf[:0]
		for i := uint64(0); i < run; i++ {
			b = appendAck(b, i, StatusCommitted, 0)
		}
	})
	if allocs != 0 {
		t.Fatalf("appendAck into a preallocated buffer: %v allocs per run of %d acks, want 0", allocs, run)
	}
}

// commitPass queues every batch before waking the dispatcher, so all of
// them are drained by a single dispatcher pass.
func commitPass(s *Server, batches []*types.Batch) {
	s.commitMu.Lock()
	s.commitQ = append(s.commitQ, batches...)
	s.commitMu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// splitBatches cuts the recorded envelopes into committed batches of
// per transactions each.
func splitBatches(txs [][]byte, per int) []*types.Batch {
	var out []*types.Batch
	for i := 0; i < len(txs); i += per {
		end := min(i+per, len(txs))
		b := make([]types.Transaction, 0, end-i)
		for _, tx := range txs[i:end] {
			b = append(b, types.Transaction(tx))
		}
		out = append(out, types.NewBatch(0, uint64(len(out)+1), b, 0))
	}
	return out
}

// TestAckBurstNoDrops is the post-stall commit burst: one dispatcher
// pass commits far more acks for one client than its connection's
// AckQueue holds entries. A per-transaction ack queue overflows and
// drops acks that come back only through the client's ack timeout; the
// batch-granular path sends them all.
func TestAckBurstNoDrops(t *testing.T) {
	const txs, per = 2000, 100
	be := &fakeBackend{}
	srv := NewServer(be, Options{AckQueue: 16, Window: 4096})
	defer srv.Stop()
	cl, err := NewClient(ClientOptions{
		ID: 5, Dial: pipeDial(srv), Window: 4096,
		AckTimeout: time.Minute, // a dropped ack must not come back by resubmission
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for i := 0; i < txs; i++ {
		if _, err := cl.Submit([]byte(fmt.Sprintf("burst-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitCond(t, "admission", func() bool { return len(be.admitted()) == txs })
	commitPass(srv, splitBatches(be.admitted(), per))

	waitCond(t, "dispatch", func() bool { return srv.Stats().Acked == txs })
	if drops := srv.Stats().AckDrops; drops != 0 {
		t.Fatalf("%d of %d commit acks dropped in the burst (AckQueue 16)", drops, txs)
	}
	waitCond(t, "every commit ack", func() bool { return cl.Counters().Committed == txs })
	if c := cl.Counters(); c.Resubmits != 0 {
		t.Fatalf("%d resubmissions: acks were recovered by timeout, not delivered", c.Resubmits)
	}
}

// TestSlowClientShed: a client that never reads cannot stall the
// dispatcher. Once AckQueue entries are queued behind its blocked
// socket, the acks of every further entry are dropped and counted one
// by one, while other clients keep receiving theirs.
func TestSlowClientShed(t *testing.T) {
	const queue, passes, per = 4, 10, 100
	be := &fakeBackend{}
	srv := NewServer(be, Options{AckQueue: queue, Window: 4096})
	defer srv.Stop()

	// The slow client handshakes and submits but never reads: the
	// server's writer blocks on HelloOK and every later entry queues.
	slow := rawConn(srv)
	defer slow.Close()
	slow.Write(appendHello(nil, 11))
	var frames []byte
	for i := 1; i <= passes*per; i++ {
		frames = appendSubmit(frames, uint64(i), PriorityNormal, []byte("slow"))
	}
	slow.Write(frames)
	waitCond(t, "admission", func() bool { return len(be.admitted()) == passes*per })

	// One committed batch per dispatcher pass: one queue entry each.
	be.mu.Lock()
	batches := splitBatches(be.txs, per)
	be.txs = nil
	be.mu.Unlock()
	for i, b := range batches {
		srv.OnCommit(b)
		want := uint64((i + 1) * per)
		waitCond(t, "dispatch pass", func() bool { return srv.Stats().Acked == want })
	}
	if got, want := srv.Stats().AckDrops, uint64((passes-queue)*per); got != want {
		t.Fatalf("ack drops = %d, want %d (entries beyond AckQueue %d, counted per ack)", got, want, queue)
	}

	// The dispatcher is not wedged behind the slow socket.
	cl, err := NewClient(ClientOptions{ID: 12, Dial: pipeDial(srv)})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	p, err := cl.Submit([]byte("healthy"))
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, "admission", func() bool { return len(be.admitted()) == 1 })
	be.commit(srv)
	select {
	case out := <-p.done:
		if !out.Committed {
			t.Fatalf("outcome = %+v", out)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("healthy client's ack stuck behind the slow client")
	}
}

// commitBackend commits every admitted transaction at once as its own
// batch: the gateway's admit → commit → ack path with no replica.
type commitBackend struct{ s *Server }

func (b *commitBackend) Submit(tx []byte) {
	b.s.OnCommit(types.NewBatch(0, 1, []types.Transaction{tx}, 0))
}
func (b *commitBackend) MempoolDepth() int { return 0 }
func (b *commitBackend) LaneDepth() int    { return 0 }

// BenchmarkGatewayAdmitAck measures one submission's round trip through
// the gateway layer: Client.Submit → frame → ServeConn admission →
// backend → OnCommit → dispatcher → grouped ack → client resolution,
// over an in-memory pipe.
func BenchmarkGatewayAdmitAck(b *testing.B) {
	be := &commitBackend{}
	srv := NewServer(be, Options{})
	be.s = srv
	defer srv.Stop()
	cl, err := NewClient(ClientOptions{ID: 1, Dial: pipeDial(srv)})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	payload := make([]byte, 512)
	b.ReportAllocs()
	for b.Loop() {
		p, err := cl.Submit(payload)
		if err != nil {
			b.Fatal(err)
		}
		if out := p.Wait(); !out.Committed {
			b.Fatalf("outcome = %+v", out)
		}
	}
}
