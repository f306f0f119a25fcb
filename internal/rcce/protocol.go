package rcce

// Protocol is the wire protocol behind Send/Recv. The default is RCCE's
// blocking local-put/remote-get scheme; iRCCE substitutes a pipelined
// variant and the vSCC runtime extension substitutes host-accelerated
// schemes for inter-device rank pairs.
type Protocol interface {
	// Name identifies the protocol in reports and benchmarks.
	Name() string
	// Send transmits data from r to rank dest; blocks until the receiver
	// has drained the message.
	Send(r *Rank, dest int, data []byte)
	// Recv fills buf with a message from rank src; blocks until complete.
	Recv(r *Rank, src int, buf []byte)
}

// DefaultProtocol is RCCE's blocking protocol (paper Fig. 2a):
//
//  1. the sender puts the message into its local communication buffer,
//  2. the sender toggles a flag at the receiver's side,
//  3. the receiver copies the message into private memory (remote get)
//     and acknowledges, which releases the sender.
//
// Messages that do not fit into the MPB are split into chunks and
// transferred consecutively; each core exclusively writes its local
// buffer, which keeps the synchronization model simple (paper §2.2).
type DefaultProtocol struct{}

// Name implements Protocol.
func (DefaultProtocol) Name() string { return "rcce-localput-remoteget" }

// ChunkBytes is the per-chunk payload: the whole MPB payload area.
const ChunkBytes = PayloadBytes

// Send implements Protocol.
func (DefaultProtocol) Send(r *Rank, dest int, data []byte) {
	myDev, myTile, myBase := r.mpb(r.id)
	for len(data) > 0 {
		n := len(data)
		if n > ChunkBytes {
			n = ChunkBytes
		}
		// Local put: private memory -> own MPB.
		t0 := r.Now()
		r.ctx.CopyPrivate(n)
		r.ctx.WriteMPB(myDev, myTile, myBase, data[:n])
		r.ctx.FlushWCB()
		r.Phase("sender", "put", t0)
		// Signal chunk availability at the receiver.
		r.setSent(dest, 1)
		// Wait for the receiver's drain acknowledgement.
		t0 = r.Now()
		r.waitReady(dest)
		r.Phase("sender", "waitack", t0)
		data = data[n:]
	}
}

// Recv implements Protocol.
func (DefaultProtocol) Recv(r *Rank, src int, buf []byte) {
	srcDev, srcTile, srcBase := r.mpb(src)
	for len(buf) > 0 {
		n := len(buf)
		if n > ChunkBytes {
			n = ChunkBytes
		}
		// Wait for the sender's flag.
		t0 := r.Now()
		r.waitSent(src)
		r.Phase("receiver", "waitdata", t0)
		// Remote get: sender's MPB -> private memory.
		t0 = r.Now()
		r.ctx.InvalidateMPB()
		r.ctx.ReadMPB(srcDev, srcTile, srcBase, buf[:n])
		r.ctx.CopyPrivate(n)
		r.Phase("receiver", "get", t0)
		// Release the sender's buffer.
		r.setReady(src, 1)
		buf = buf[n:]
	}
}
