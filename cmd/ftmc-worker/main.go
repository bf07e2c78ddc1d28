// ftmc-worker is the worker process of the distributed campaign
// runner: it speaks the lease protocol of internal/expt and evaluates
// each leased set range through the same pooled campaign engine the
// single-process expt.Campaign uses, so its verdicts are bit-identical
// to a local run. The protocol is wire v2: a 0xF7 preamble,
// length-prefixed frames and varint-delta verdict bitmaps; a
// coordinator speaking any other version is rejected at the handshake.
// A coordinator (ftmc-report -distributed, or any expt.DistCampaign
// caller) owns the grid partitioning and the merge; the worker is
// stateless across leases beyond its per-pool-worker arenas.
//
// Usage:
//
//	ftmc-worker                      # protocol on stdin/stdout
//	ftmc-worker -connect host:port   # dial a TCP coordinator
//
// FTMC_WORKERS bounds the in-process pool width as everywhere else;
// the result bytes do not depend on it. Diagnostics go to stderr,
// which a spawning coordinator passes through.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"

	"repro/internal/expt"
)

// stdio is the stdin/stdout transport of subprocess mode.
type stdio struct{}

func (stdio) Read(p []byte) (int, error)  { return os.Stdin.Read(p) }
func (stdio) Write(p []byte) (int, error) { return os.Stdout.Write(p) }

func main() {
	connect := flag.String("connect", "", "coordinator address to dial (host:port); empty serves stdin/stdout")
	flag.Parse()

	var rw io.ReadWriter = stdio{}
	if *connect != "" {
		c, err := net.Dial("tcp", *connect)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ftmc-worker:", err)
			os.Exit(1)
		}
		defer c.Close()
		rw = c
	}
	if err := expt.ServeWorker(rw); err != nil {
		fmt.Fprintln(os.Stderr, "ftmc-worker:", err)
		os.Exit(1)
	}
}
