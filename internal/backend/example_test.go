package backend_test

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"dgs/internal/backend"
	"dgs/internal/proto"
	"dgs/internal/satellite"
)

// ExampleStationAgent walks the paper's ack-free downlink (§3.3) end to
// end: a receive-only station reports the chunks it decoded, the backend
// collates them, a transmit-capable station fetches the cumulative ack
// digest it will upload at the satellite's next pass, and the satellite's
// on-board store frees storage only then. The stations run managed
// sessions (Connect): a dropped link is redialed with backoff and resumed
// by report sequence number, and a report is still collated exactly once.
// Here the sessions ride in-memory pipes (linger_test.go's network, with
// no linger); a deployment dials the backend's TCP address.
func ExampleStationAgent() {
	ln := newLingerNet(0)
	srv := backend.NewServer(nil)
	srv.Serve(ln)
	defer srv.Close()

	// A satellite with 2 GB of captured imagery in 100 MB chunks.
	captured := time.Date(2020, 6, 1, 8, 0, 0, 0, time.UTC)
	store := satellite.NewStore("EO-SAT-007", 0, 0.8e9)
	for i := range 20 {
		store.AddChunk(captured.Add(time.Duration(i)*5*time.Minute), 0.8e9, 0)
	}
	fmt.Printf("satellite holds %.1f GB pending\n", store.PendingBits()/8e9)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	connect := func(a *backend.StationAgent) {
		backend.SetDial(a, func(context.Context) (net.Conn, error) { return ln.Dial() })
		if err := a.Connect(ctx, "backend"); err != nil {
			log.Fatal(err)
		}
	}
	rx := &backend.StationAgent{ID: 42, Name: "rx-node"}
	connect(rx)
	defer rx.Close()
	tx := &backend.StationAgent{ID: 7, Name: "tx-node", TxCapable: true}
	connect(tx)
	defer tx.Close()

	// Pass 1: the satellite dumps 1 GB to the receive-only station, which
	// cannot ack over the air: it relays receipts to the backend.
	received := captured.Add(2 * time.Hour)
	sent := store.Transmit(8e9, received)
	report := &proto.ChunkReport{StationID: 42, Sat: 7}
	for _, c := range sent {
		report.Chunks = append(report.Chunks, proto.ChunkInfo{
			ID: uint64(c.ID), Bits: uint64(c.Bits), Captured: c.Captured, Received: received,
		})
	}
	if err := rx.Report(report); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rx-node decoded %d chunks and reported them over the Internet\n", len(sent))
	fmt.Printf("satellite still stores %.1f GB: nothing is discarded before an ack\n", store.StoredBits()/8e9)

	// Pass 2, over the TX station: fetch the collated digest and uplink
	// it. Only now does the satellite free storage.
	digest, err := tx.FetchDigest(7)
	if err != nil {
		log.Fatal(err)
	}
	ids := make([]satellite.ChunkID, len(digest.ChunkIDs))
	for i, id := range digest.ChunkIDs {
		ids[i] = satellite.ChunkID(id)
	}
	freed := store.Ack(ids)
	fmt.Printf("tx-node uplinked %d delayed acks; satellite freed %.1f GB and stores %.1f GB\n",
		len(ids), freed/8e9, store.StoredBits()/8e9)
	if err := store.CheckConservation(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("bits-conservation invariant holds: generated = delivered + stored")
	// Output:
	// satellite holds 2.0 GB pending
	// rx-node decoded 10 chunks and reported them over the Internet
	// satellite still stores 2.0 GB: nothing is discarded before an ack
	// tx-node uplinked 10 delayed acks; satellite freed 1.0 GB and stores 1.0 GB
	// bits-conservation invariant holds: generated = delivered + stored
}
