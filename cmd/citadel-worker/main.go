// Command citadel-worker is a stateless campaign-chunk executor. Point
// it at a citadel-server started with -cluster and it pulls chunk
// leases, simulates them locally, and delivers the results:
//
//	citadel-server -addr :8080 -job-dir /var/lib/citadel -cluster &
//	citadel-worker -coordinator http://localhost:8080
//	citadel-worker -coordinator http://localhost:8080   # more workers, more throughput
//
// Workers hold no durable state and never listen on a port — everything
// needed to run a chunk deterministically arrives in the lease grant, so
// a worker can be killed (even SIGKILL) at any moment: the coordinator
// requeues its chunk when the lease expires, and the campaign result is
// bit-identical regardless of how many workers ran or died. The grant
// carries the full reliability spec, including the scenario selection
// (scheme, fault model, scenario parameters), so scenario-registry
// campaigns distribute with no worker-side configuration: chunks resolve
// their plugins from the worker's own registry by name.
//
// SIGINT/SIGTERM stops pulling and abandons any in-flight chunk; the
// lease machinery reassigns it. Run N processes (or -n within one) to
// scale out.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
)

func main() {
	var (
		coordinator = flag.String("coordinator", "http://localhost:8080", "base URL of the citadel-server coordinator")
		id          = flag.String("id", "", "worker ID (default: random; -n > 1 appends a slot suffix)")
		n           = flag.Int("n", 1, "worker loops to run in this process (one chunk each at a time)")
		poll        = flag.Duration("poll", 500*time.Millisecond, "least spacing between empty lease answers; a coordinator holds a lease request open until work appears, so this paces only one that answers at once")
	)
	flag.Parse()
	if *n < 1 {
		*n = 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var wg sync.WaitGroup
	for i := 0; i < *n; i++ {
		wid := *id
		if wid != "" && *n > 1 {
			wid = fmt.Sprintf("%s-%d", wid, i)
		}
		w := cluster.NewWorker(cluster.WorkerOptions{
			BaseURL:      *coordinator,
			ID:           wid,
			PollInterval: *poll,
			Logf:         log.Printf,
		})
		log.Printf("citadel-worker %s pulling from %s", w.ID(), *coordinator)
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	wg.Wait()
	log.Printf("citadel-worker stopped")
}
