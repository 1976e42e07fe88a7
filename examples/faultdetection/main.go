// Fault detection: a BSP training loop runs under C4D monitoring while
// three classic production anomalies are injected one after another — a
// compute straggler, a receive-side NIC degradation, and a crashed worker.
// C4D localizes each from collective-communication timing alone, exactly
// the mechanism of the paper's §III-A.
package main

import (
	"fmt"
	"log"

	"c4"
)

func main() {
	env, err := c4.OpenEnv(c4.EnvOptions{Spec: c4.PaperTestbed()})
	if err != nil {
		log.Fatal(err)
	}

	master := c4.NewC4DMaster(env.Eng, c4.C4DConfig{})
	master.Subscribe(func(ev c4.C4DEvent) {
		fmt.Printf("  C4D finding: %v\n", ev)
	})

	nodes := []int{0, 2, 4, 6, 8, 10}
	prov, err := c4.OpenC4PMaster(c4.C4PMasterOptions{
		Topology: env.Topo, Mode: c4.C4PStaticMode, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	comm, err := c4.NewCommunicator(c4.CommConfig{
		Engine:   env.Eng,
		Net:      env.Net,
		Provider: prov,
		Sink:     master,
	}, nodes)
	if err != nil {
		log.Fatal(err)
	}

	// BSP loop: 100 ms compute + 64 MiB allreduce, forever.
	straggle := map[int]c4.Time{}
	var iterate func()
	iterate = func() {
		now := env.Eng.Now()
		arrivals := make([]c4.Time, len(nodes))
		for i, n := range nodes {
			arrivals[i] = now + 100*c4.Millisecond + straggle[n]
		}
		comm.AllReduce(64<<20, arrivals, func(c4.CollResult) { iterate() })
	}
	iterate()

	at := func(t c4.Time, what string, f func()) {
		env.Eng.Schedule(t, func() {
			fmt.Printf("[%v] inject: %s\n", t, what)
			f()
		})
	}
	at(20*c4.Second, "node 4 becomes a straggler (+200ms compute)", func() {
		straggle[4] = 200 * c4.Millisecond
	})
	at(60*c4.Second, "straggler repaired", func() {
		delete(straggle, 4)
	})
	at(90*c4.Second, "node 8 receive side degrades to 25 Gbps", func() {
		for p := 0; p < 2; p++ {
			env.Net.SetLinkCapacity(env.Topo.PortAt(8, 0, p).Down, 25)
		}
	})
	at(150*c4.Second, "NIC replaced", func() {
		for p := 0; p < 2; p++ {
			env.Net.SetLinkCapacity(env.Topo.PortAt(8, 0, p).Down, 200)
		}
	})
	at(180*c4.Second, "worker process on node 10 crashes", func() {
		comm.SetCrashed(10, true)
	})

	env.Eng.RunUntil(5 * c4.Minute)
	master.Stop()

	fmt.Printf("\n%d findings emitted; syndromes observed:\n", len(master.Events()))
	seen := map[c4.Syndrome]bool{}
	for _, ev := range master.Events() {
		seen[ev.Syndrome] = true
	}
	for _, s := range []c4.Syndrome{c4.NonCommSlow, c4.CommSlow, c4.NonCommHang, c4.CommHang} {
		fmt.Printf("  %-15v %v\n", s, seen[s])
	}
}
