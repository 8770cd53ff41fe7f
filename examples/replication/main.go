// Replication: a primary + read-replica deployment in one process — the
// same wiring `lgserver` and `lgserver -follow` give you across machines.
// A durable primary serves its WAL over HTTP; a follower applies complete
// commit groups and serves transactionally consistent snapshots at its
// applied epoch; the client routes reads with read-your-writes semantics.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"livegraph"
	"livegraph/internal/repl"
	"livegraph/internal/server"
)

const follows = int64(0)

func main() {
	// The primary: durable (the WAL is the replication stream), served
	// over loopback HTTP.
	dir, err := os.MkdirTemp("", "lg-repl-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	primary, err := livegraph.Open(livegraph.Options{Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer primary.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	primarySrv := server.New(primary)
	go http.Serve(ln, primarySrv)
	primaryURL := "http://" + ln.Addr().String()

	// The follower: an in-memory graph fed by the replication stream.
	follower, err := livegraph.Open(livegraph.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer follower.Close()
	applier := repl.NewApplier(follower, primaryURL)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go applier.Run(ctx)

	// Write through the primary; every Tx response carries its commit
	// epoch — the read-your-writes token.
	client := server.NewClient(primaryURL)
	ids, err := client.Tx(
		server.Op{Op: "addVertex", Data: []byte("ada")},
		server.Op{Op: "addVertex", Data: []byte("grace")},
	)
	if err != nil {
		log.Fatal(err)
	}
	ada, grace := ids[0], ids[1]
	if _, err := client.Tx(server.Op{Op: "insertEdge", Src: ada, Label: follows, Dst: grace}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote through primary; client observed commit epoch %d\n", client.LastEpoch())

	// Wait for the follower to catch up, then read the same data from a
	// snapshot pinned on the replica.
	for follower.ReadEpoch() < primary.ReadEpoch() {
		time.Sleep(time.Millisecond)
	}
	snap, err := follower.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	name, _ := snap.GetVertex(livegraph.VertexID(ada))
	deg := snap.Degree(livegraph.VertexID(ada), livegraph.Label(follows))
	fmt.Printf("follower at epoch %d: %s follows %d account(s)\n", snap.ReadEpoch(), name, deg)
	snap.Release()

	// The follower is read-only: its state is a pure function of the
	// primary's log.
	if _, err := follower.Begin(); errors.Is(err, livegraph.ErrFollower) {
		fmt.Println("writes on the follower are rejected: route them to the primary")
	}

	// Lag is observable without logs, in epochs and bytes.
	fmt.Printf("replication: %d groups applied, %d bytes shipped, lag %d epoch(s)\n",
		applier.Stats.AppliedGroups.Load(), applier.Stats.AppliedBytes.Load(), applier.Stats.LagEpochs())
}
