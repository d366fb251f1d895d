package fabric

// One-shot observer calls against a live node. A probe connection never
// sends fHello, so the node treats it as an anonymous visitor: its
// disappearance is not a death (the accept-side lease only arms after a
// hello), and closing it after one call is the normal pattern.
//
// These are the test harness' and collector's window into a fabric —
// deliberately read-only plus the terminal shutdown notify, so nothing
// here can perturb the run being observed.

import (
	"fmt"

	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// probeCall dials addr, performs one call, and hangs up.
func probeCall(d transport.Dialer, addr string, t byte, payload []byte) ([]byte, error) {
	nc, err := d.Dial(addr)
	if err != nil {
		return nil, err
	}
	wc := wire.New(nc, wire.Config{})
	defer wc.Close()
	return wc.Call(t, payload)
}

// FetchMembers asks the node at addr for its membership and parity
// hosting tables — the observer's progress gauge (watermarks advance
// once per completed epoch).
func FetchMembers(d transport.Dialer, addr string) ([]Member, []Hosting, error) {
	reply, err := probeCall(d, addr, fMembers, nil)
	if err != nil {
		return nil, nil, err
	}
	dec := wire.NewDec(reply)
	ms, hs, ok := decTables(dec)
	if !ok {
		return nil, nil, fmt.Errorf("fabric: undecodable members reply from %s", addr)
	}
	return ms, hs, nil
}

// FetchWindow reads the full window hosted by the node at addr. In the
// symmetric fabric each rank is the sole authority for its own window,
// so collecting final state means one FetchWindow per member.
func FetchWindow(d transport.Dialer, addr string) ([]uint64, error) {
	reply, err := probeCall(d, addr, fWindowFetch, nil)
	if err != nil {
		return nil, err
	}
	dec := wire.NewDec(reply)
	w := dec.Words()
	if dec.Failed() {
		return nil, fmt.Errorf("fabric: undecodable window reply from %s", addr)
	}
	return w, nil
}

// NotifyShutdown tells the node at addr the run is over; its
// AwaitShutdown returns. Best-effort: an already-dead node is fine.
func NotifyShutdown(d transport.Dialer, addr string) {
	nc, err := d.Dial(addr)
	if err != nil {
		return
	}
	wc := wire.New(nc, wire.Config{})
	wc.Notify(fShutdown, nil)
	wc.Close()
}
