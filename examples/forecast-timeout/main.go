// Forecast-timeout: dynamic time-out discovery against a fluctuating
// server.
//
// Section 2.2 of the paper: EveryWare instruments each request/response
// pair, feeds the timings to the NWS forecasting modules, and derives
// message time-outs from the forecasts. "This dynamic time-out discovery
// proved crucial to overall program stability" — statically determined
// time-outs misjudged server availability under SC98's fluctuating network
// load, causing needless retries.
//
// This example runs a real lingua franca server whose handler delay
// suddenly increases (an SCINet-style load episode), then compares a
// static 150 ms time-out against the forecast-driven policy.
//
// Run with:
//
//	go run ./examples/forecast-timeout
package main

import (
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"everyware/internal/forecast"
	"everyware/internal/wire"
)

// msgEcho is this example's one message; like every type a server
// handles, it is declared in the message table first.
const msgEcho wire.MsgType = 100

func init() { wire.Define(msgEcho, "example.echo", false) }

func main() {
	// A server whose response delay is controlled by an atomic knob.
	var delayMs atomic.Int64
	delayMs.Store(30)
	svc := wire.NewService(wire.ServiceConfig{ListenAddr: "127.0.0.1:0", DialTimeout: time.Second, Silent: true})
	svc.Handle(msgEcho, wire.HandlerFunc(func(_ string, req *wire.Packet) (*wire.Packet, error) {
		time.Sleep(time.Duration(delayMs.Load()) * time.Millisecond)
		return wire.Reply(msgEcho, nil), nil
	}))
	addr, err := svc.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()

	registry := forecast.NewRegistry()
	policy := forecast.NewTimeoutPolicy(registry)
	key := forecast.Key{Resource: addr, Event: "echo"}
	client := svc.Client()

	call := func(timeout time.Duration) (time.Duration, bool) {
		start := time.Now()
		resp, err := client.Call(addr, wire.NewRequest(msgEcho, nil), timeout)
		if err == nil {
			resp.Release()
		}
		return time.Since(start), err == nil
	}

	const staticTimeout = 150 * time.Millisecond
	staticFails, dynamicFails := 0, 0
	fmt.Println("phase 1: calm network (server delay 30 ms)")
	for i := 0; i < 10; i++ {
		rtt, ok := call(policy.Timeout(key))
		if ok {
			policy.Observe(key, rtt)
		} else {
			policy.Observe(key, policy.Timeout(key))
			dynamicFails++
		}
		if _, ok := call(staticTimeout); !ok {
			staticFails++
		}
	}
	f, _ := registry.Forecast(key)
	fmt.Printf("  forecast response: %.0f ms (method %s); derived time-out: %v\n",
		f.Value*1000, f.Method, policy.Timeout(key))

	fmt.Println("phase 2: load spike (server delay jumps to 400 ms)")
	delayMs.Store(400)
	for i := 0; i < 15; i++ {
		to := policy.Timeout(key)
		rtt, ok := call(to)
		if ok {
			policy.Observe(key, rtt)
		} else {
			policy.Observe(key, to) // the response took at least this long
			dynamicFails++
		}
		if _, ok := call(staticTimeout); !ok {
			staticFails++
		}
	}
	f, _ = registry.Forecast(key)
	fmt.Printf("  forecast response: %.0f ms (method %s); derived time-out: %v\n",
		f.Value*1000, f.Method, policy.Timeout(key))

	fmt.Printf("\nresults over 25 calls each:\n")
	fmt.Printf("  static 150 ms time-out: %2d spurious failures\n", staticFails)
	fmt.Printf("  dynamic discovery:      %2d spurious failures\n", dynamicFails)
	if dynamicFails < staticFails {
		fmt.Println("dynamic time-out discovery absorbed the load change, as at SC98.")
	}
}
