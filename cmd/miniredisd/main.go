// Command miniredisd runs the engine's data-plane server (internal/miniredis)
// standalone, for hosting the Redis mappings out-of-process or inspecting a
// run's streams and state hashes. It serves the commands the engine issues
// plus a handful of inspection commands (see the miniredis package comment),
// not the Redis command set.
//
// Usage:
//
//	miniredisd -addr 127.0.0.1:6379
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"repro/internal/miniredis"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:6380", "listen address")
		opDelay = flag.Duration("op-delay", 0, "artificial per-command service delay")
	)
	flag.Parse()

	srv := miniredis.NewServer(miniredis.Options{
		Addr:    *addr,
		OpDelay: *opDelay,
		Logf:    log.Printf,
	})
	if err := srv.Start(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("miniredisd listening on %s\n", srv.Addr())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	<-stop
	fmt.Println("shutting down")
	if err := srv.Close(); err != nil {
		log.Print(err)
	}
	time.Sleep(50 * time.Millisecond)
}
