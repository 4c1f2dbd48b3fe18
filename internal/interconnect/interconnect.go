// Package interconnect provides cycle-level models of the switch kinds the
// taxonomy places at its connection sites: fixed direct wiring, a shared
// bus, a full crossbar, a limited (windowed) crossbar like DRRA's 3-hop
// network, and a packet-switched 2D mesh NoC like REDEFINE's. The machine
// simulators use these models for their DP-DP and DP-DM traffic, so the
// taxonomy's switch kinds have observable performance consequences
// (contention, serialization, locality) and not just area/config costs.
//
// All models are deterministic and single-goroutine: the simulators drive
// them with a monotonically non-decreasing issue cycle and the models
// return the arrival cycle of each word.
package interconnect

import (
	"fmt"

	"repro/internal/taxonomy"
)

// Stats counts the traffic a network has carried.
type Stats struct {
	// Transfers is the number of words carried.
	Transfers int64
	// TotalLatency sums arrival-minus-issue over all transfers.
	TotalLatency int64
	// ConflictCycles sums the cycles transfers spent waiting for a
	// resource (bus, crossbar output, mesh link) held by earlier traffic.
	ConflictCycles int64
}

// MeanLatency is the average transfer latency in cycles, 0 when idle.
func (s Stats) MeanLatency() float64 {
	if s.Transfers == 0 {
		return 0
	}
	return float64(s.TotalLatency) / float64(s.Transfers)
}

// Network is a cycle-level model of one switch.
type Network interface {
	// Ports is the number of endpoints on each side.
	Ports() int
	// Transfer schedules a one-word message from src to dst issued at
	// cycle now and returns its arrival cycle. Implementations reject
	// endpoint pairs the topology cannot connect.
	Transfer(now int64, src, dst int) (int64, error)
	// Kind reports which taxonomy switch kind the model realizes.
	Kind() taxonomy.Link
	// Stats returns the accumulated traffic counters.
	Stats() Stats
	// Reset clears occupancy and counters.
	Reset()
}

// checkPorts validates endpoint indices against the port count.
func checkPorts(name string, ports, src, dst int) error {
	if src < 0 || src >= ports {
		return fmt.Errorf("interconnect: %s: source port %d out of range [0,%d)", name, src, ports)
	}
	if dst < 0 || dst >= ports {
		return fmt.Errorf("interconnect: %s: destination port %d out of range [0,%d)", name, dst, ports)
	}
	return nil
}

// Direct is fixed point-to-point wiring: port i connects only to port i
// (the paper's '-' switch between equal-numbered blocks, e.g. each DP to
// its own DM bank). One word per pair per cycle.
type Direct struct {
	ports     int
	busyUntil []int64
	stats     Stats
}

// NewDirect builds direct wiring over the given number of port pairs.
func NewDirect(ports int) (*Direct, error) {
	if ports < 1 {
		return nil, fmt.Errorf("interconnect: direct: ports must be >= 1, got %d", ports)
	}
	return &Direct{ports: ports, busyUntil: make([]int64, ports)}, nil
}

// Ports implements Network.
func (d *Direct) Ports() int { return d.ports }

// Kind implements Network.
func (d *Direct) Kind() taxonomy.Link { return taxonomy.LinkDirect }

// Transfer implements Network. Only same-index pairs are wired.
func (d *Direct) Transfer(now int64, src, dst int) (int64, error) {
	if err := checkPorts("direct", d.ports, src, dst); err != nil {
		return 0, err
	}
	if src != dst {
		return 0, fmt.Errorf("interconnect: direct: no wire from port %d to port %d (only paired ports)", src, dst)
	}
	start := now
	if d.busyUntil[src] > start {
		d.stats.ConflictCycles += d.busyUntil[src] - start
		start = d.busyUntil[src]
	}
	arrival := start + 1
	d.busyUntil[src] = arrival
	d.stats.Transfers++
	d.stats.TotalLatency += arrival - now
	return arrival, nil
}

// Stats implements Network.
func (d *Direct) Stats() Stats { return d.stats }

// Reset implements Network.
func (d *Direct) Reset() {
	for i := range d.busyUntil {
		d.busyUntil[i] = 0
	}
	d.stats = Stats{}
}

// Bus is a single shared medium: any port reaches any port but only one
// word is in flight per cycle. It realizes a cheap 'x' switch with heavy
// serialization (RaPiD's scalability complaint in §IV).
type Bus struct {
	ports     int
	busyUntil int64
	stats     Stats
}

// NewBus builds a shared bus over the given number of ports.
func NewBus(ports int) (*Bus, error) {
	if ports < 1 {
		return nil, fmt.Errorf("interconnect: bus: ports must be >= 1, got %d", ports)
	}
	return &Bus{ports: ports}, nil
}

// Ports implements Network.
func (b *Bus) Ports() int { return b.ports }

// Kind implements Network.
func (b *Bus) Kind() taxonomy.Link { return taxonomy.LinkCrossbar }

// Transfer implements Network.
func (b *Bus) Transfer(now int64, src, dst int) (int64, error) {
	if err := checkPorts("bus", b.ports, src, dst); err != nil {
		return 0, err
	}
	start := now
	if b.busyUntil > start {
		b.stats.ConflictCycles += b.busyUntil - start
		start = b.busyUntil
	}
	arrival := start + 1
	b.busyUntil = arrival
	b.stats.Transfers++
	b.stats.TotalLatency += arrival - now
	return arrival, nil
}

// Stats implements Network.
func (b *Bus) Stats() Stats { return b.stats }

// Reset implements Network.
func (b *Bus) Reset() { b.busyUntil = 0; b.stats = Stats{} }

// Crossbar is a full any-to-any switch: transfers to distinct destinations
// proceed in parallel; transfers to the same destination serialize on the
// output port. The paper's full 'x' switch.
type Crossbar struct {
	ports   int
	outBusy []int64
	stats   Stats
}

// NewCrossbar builds a full crossbar over the given number of ports.
func NewCrossbar(ports int) (*Crossbar, error) {
	if ports < 1 {
		return nil, fmt.Errorf("interconnect: crossbar: ports must be >= 1, got %d", ports)
	}
	return &Crossbar{ports: ports, outBusy: make([]int64, ports)}, nil
}

// Ports implements Network.
func (c *Crossbar) Ports() int { return c.ports }

// Kind implements Network.
func (c *Crossbar) Kind() taxonomy.Link { return taxonomy.LinkCrossbar }

// Transfer implements Network.
func (c *Crossbar) Transfer(now int64, src, dst int) (int64, error) {
	if err := checkPorts("crossbar", c.ports, src, dst); err != nil {
		return 0, err
	}
	start := now
	if c.outBusy[dst] > start {
		c.stats.ConflictCycles += c.outBusy[dst] - start
		start = c.outBusy[dst]
	}
	arrival := start + 1
	c.outBusy[dst] = arrival
	c.stats.Transfers++
	c.stats.TotalLatency += arrival - now
	return arrival, nil
}

// Stats implements Network.
func (c *Crossbar) Stats() Stats { return c.stats }

// FreeAt returns the cycle from which dst's output port is free: a
// transfer to dst issued at or after it arrives the cycle after it issued.
func (c *Crossbar) FreeAt(dst int) int64 { return c.outBusy[dst] }

// Admit records n transfers to dst that arrived the cycle after they
// issued, the last of them issued at cycle last: what Transfer records for
// them, taken in issue order, when none issued before FreeAt(dst) and no
// two issued in one cycle. A batch checked against that rule may so be
// admitted out of issue order, and then in one call per destination.
func (c *Crossbar) Admit(dst int, n, last int64) {
	c.outBusy[dst] = max(c.outBusy[dst], last+1)
	c.stats.Transfers += n
	c.stats.TotalLatency += n
}

// Reset implements Network.
func (c *Crossbar) Reset() {
	for i := range c.outBusy {
		c.outBusy[i] = 0
	}
	c.stats = Stats{}
}

// Limited is a windowed crossbar: each source reaches only destinations
// within a hop window (DRRA's "3 hops right or 3 hops left" connectivity,
// Table III's nx14 cells). Out-of-window destinations are a topology error
// — software must route through intermediate hops explicitly.
type Limited struct {
	ports   int
	window  int
	outBusy []int64
	stats   Stats
}

// NewLimited builds a windowed crossbar; window is the maximum |src-dst|
// distance reachable in one transfer.
func NewLimited(ports, window int) (*Limited, error) {
	if ports < 1 {
		return nil, fmt.Errorf("interconnect: limited: ports must be >= 1, got %d", ports)
	}
	if window < 1 {
		return nil, fmt.Errorf("interconnect: limited: window must be >= 1, got %d", window)
	}
	return &Limited{ports: ports, window: window, outBusy: make([]int64, ports)}, nil
}

// Ports implements Network.
func (l *Limited) Ports() int { return l.ports }

// Window is the reachable hop distance.
func (l *Limited) Window() int { return l.window }

// Kind implements Network.
func (l *Limited) Kind() taxonomy.Link { return taxonomy.LinkCrossbar }

// Transfer implements Network.
func (l *Limited) Transfer(now int64, src, dst int) (int64, error) {
	if err := checkPorts("limited", l.ports, src, dst); err != nil {
		return 0, err
	}
	dist := src - dst
	if dist < 0 {
		dist = -dist
	}
	if dist > l.window {
		return 0, fmt.Errorf("interconnect: limited: port %d cannot reach port %d (distance %d > window %d)",
			src, dst, dist, l.window)
	}
	start := now
	if l.outBusy[dst] > start {
		l.stats.ConflictCycles += l.outBusy[dst] - start
		start = l.outBusy[dst]
	}
	arrival := start + 1
	l.outBusy[dst] = arrival
	l.stats.Transfers++
	l.stats.TotalLatency += arrival - now
	return arrival, nil
}

// Stats implements Network.
func (l *Limited) Stats() Stats { return l.stats }

// Reset implements Network.
func (l *Limited) Reset() {
	for i := range l.outBusy {
		l.outBusy[i] = 0
	}
	l.stats = Stats{}
}
