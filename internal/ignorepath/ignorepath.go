// Package ignorepath implements the systematic insertion-packet
// discovery of §5.3: it enumerates candidate packet perturbations
// against the server stack models ("ignore path" analysis — every
// program path on which the server discards or ignores a packet),
// cross-checks each against the GFW model (does the device process the
// packet and update its TCB?), and cross-validates against the Table 2
// middlebox profiles. Its output is Table 3, generated rather than
// transcribed.
package ignorepath

import (
	"fmt"
	"strings"
	"time"

	"intango/internal/core"
	"intango/internal/gfw"
	"intango/internal/middlebox"
	"intango/internal/netem"
	"intango/internal/packet"
	"intango/internal/tcpstack"
)

const probeKeyword = "ultrasurf"

// connContext is the fixed synthetic connection all candidates are
// evaluated against.
type connContext struct {
	cli, srv  packet.Addr
	cport     uint16
	sport     uint16
	clientISS packet.Seq
	serverISS packet.Seq
}

func defaultContext() connContext {
	return connContext{
		cli: packet.AddrFrom4(10, 0, 0, 1), srv: packet.AddrFrom4(203, 0, 113, 80),
		cport: 40000, sport: 80,
		clientISS: 10000, serverISS: 90000,
	}
}

// view builds the server-side ConnView for a state.
func (cc connContext) view(st tcpstack.State) tcpstack.ConnView {
	return tcpstack.ConnView{
		State:       st,
		RcvNxt:      cc.clientISS.Add(1),
		RcvWnd:      29200,
		SndUna:      cc.serverISS.Add(1),
		SndNxt:      cc.serverISS.Add(1),
		TSRecent:    5000,
		HasTSRecent: true,
		MaxWindow:   29200,
	}
}

// dataProbe builds an in-order client data packet carrying the probe
// keyword, with valid numbering — the baseline every perturbation
// starts from.
func (cc connContext) dataProbe() *packet.Packet {
	p := packet.NewTCP(cc.cli, cc.cport, cc.srv, cc.sport,
		packet.FlagPSH|packet.FlagACK, cc.clientISS.Add(1), cc.serverISS.Add(1),
		[]byte("GET /?q="+probeKeyword+" HTTP/1.1\r\n\r\n"))
	p.TCP.Options = append(p.TCP.Options, packet.TimestampOption(6000, 5000))
	return p.Finalize()
}

// Candidate is one row of the enumeration.
type Candidate struct {
	// Condition describes the perturbation, in Table 3's wording.
	Condition string
	// Flags is the TCP flag set of the probe.
	Flags string
	// States lists the server TCP states the row applies to.
	States []tcpstack.State
	// Control marks candidates whose GFW effect is a state change
	// (teardown/resync) rather than data ingestion.
	Control bool
	// RouterHostile marks IP-layer perturbations §5.3 expects routers
	// themselves to discard; the analysis should prove them unusable.
	RouterHostile bool
	// build produces the probe packet.
	build func(cc connContext) *packet.Packet
}

// Candidates returns the §5.3 enumeration: the baseline acceptable
// packet plus every studied perturbation.
//
// The TCP-layer data-packet perturbations are exactly the crafting
// discrepancies the evasion strategies inject (core.Discrepancy), so
// they are routed through the same core.Env.Apply the strategy
// compiler uses — Table 3 probes the very packets Table 5 builds,
// through one implementation. The remaining rows (IP-layer
// perturbations, the RST+ACK control, FIN-only) have no strategy
// counterpart and stay bespoke.
func Candidates() []Candidate {
	anyState := []tcpstack.State{tcpstack.SynRecv, tcpstack.Established}
	env := core.Env{Rand: netem.NewRand(53)}
	disc := func(d core.Discrepancy) func(cc connContext) *packet.Packet {
		return func(cc connContext) *packet.Packet { return env.Apply(cc.dataProbe(), d) }
	}
	return []Candidate{
		{
			Condition: "IP total length > actual length", Flags: "Any", States: anyState,
			build: func(cc connContext) *packet.Packet {
				p := cc.dataProbe()
				p.IP.TotalLength += 64
				// The sender computes the header checksum over the
				// lying length, so the header is internally consistent
				// and routers forward it.
				p.IP.UpdateChecksum()
				return p
			},
		},
		{
			Condition: "TCP Header Length < 20", Flags: "Any", States: anyState,
			build: func(cc connContext) *packet.Packet {
				p := cc.dataProbe()
				p.TCP.RawDataOffset = 4
				return p
			},
		},
		{
			Condition: "TCP checksum incorrect", Flags: "Any", States: anyState,
			build: disc(core.DiscBadChecksum),
		},
		{
			Condition: "Wrong acknowledgement number", Flags: "RST+ACK",
			States: []tcpstack.State{tcpstack.SynRecv}, Control: true,
			build: func(cc connContext) *packet.Packet {
				return packet.NewTCP(cc.cli, cc.cport, cc.srv, cc.sport,
					packet.FlagRST|packet.FlagACK, cc.clientISS.Add(1), cc.serverISS.Add(77777), nil)
			},
		},
		{
			Condition: "Wrong acknowledgement number", Flags: "ACK", States: anyState,
			build: disc(core.DiscBadAck),
		},
		{
			Condition: "Has unsolicited MD5 Optional Header", Flags: "Any", States: anyState,
			build: disc(core.DiscMD5),
		},
		{
			Condition: "TCP packet with no flag", Flags: "No flag", States: anyState,
			build: disc(core.DiscNoFlag),
		},
		{
			Condition: "TCP packet with only FIN flag", Flags: "FIN", States: anyState,
			build: func(cc connContext) *packet.Packet {
				p := cc.dataProbe()
				p.TCP.Flags = packet.FlagFIN
				return p.Finalize()
			},
		},
		{
			Condition: "Timestamps too old", Flags: "ACK", States: anyState,
			build: disc(core.DiscOldTimestamp),
		},
		// §5.3's rejected IP-layer discrepancies: routers themselves
		// discard these, so they never make it to the GFW, let alone
		// past it — the analysis must rule them out.
		{
			Condition: "IP checksum incorrect", Flags: "Any", States: anyState, RouterHostile: true,
			build: func(cc connContext) *packet.Packet {
				p := cc.dataProbe()
				p.IP.Checksum ^= 0x5a5a
				return p
			},
		},
		{
			Condition: "IP optional header present", Flags: "Any", States: anyState, RouterHostile: true,
			build: func(cc connContext) *packet.Packet {
				p := cc.dataProbe()
				// A record-route option, padded to 4 bytes.
				p.IP.Options = []byte{7, 7, 4, 0, 0, 0, 0, 0}
				p.IP.SetLengths(p.TCP.HeaderLen() + len(p.Payload))
				p.IP.UpdateChecksum()
				return p
			},
		},
	}
}

// Finding is the evaluated result for one candidate.
type Finding struct {
	Candidate Candidate
	// ServerVerdicts maps stack profile name → disposition in each
	// applicable state ("state/verdict(reason)").
	ServerVerdicts map[string][]string
	// ServerIgnores reports whether the reference stack (Linux 4.4)
	// ignores the packet in every applicable state.
	ServerIgnores bool
	// GFWAccepts reports whether the evolved GFW model processes the
	// packet (ingests its data or changes TCB state).
	GFWAccepts bool
	// GFWEffect describes what the GFW did.
	GFWEffect string
	// Middlebox maps Table 2 profile → "pass" / "dropped" /
	// "sometimes dropped".
	Middlebox map[middlebox.ProfileName]string
	// UsableInsertion is the §5.3 conclusion: ignored by the server
	// but accepted by the GFW.
	UsableInsertion bool
}

// Analyze runs the full §5.3 pipeline over all candidates.
func Analyze() []Finding {
	cc := defaultContext()
	profiles := tcpstack.AllProfiles()
	var findings []Finding
	for _, cand := range Candidates() {
		f := Finding{
			Candidate:      cand,
			ServerVerdicts: make(map[string][]string),
			Middlebox:      make(map[middlebox.ProfileName]string),
		}
		ignores := true
		for _, prof := range profiles {
			for _, st := range cand.States {
				d := tcpstack.Classify(prof, cc.view(st), cand.build(cc))
				f.ServerVerdicts[prof.Name] = append(f.ServerVerdicts[prof.Name],
					fmt.Sprintf("%s/%s(%s)", st, d.Verdict, d.Reason))
				if prof.Name == "linux-4.4" && d.Verdict == tcpstack.Accept {
					ignores = false
				}
			}
		}
		f.ServerIgnores = ignores
		f.GFWAccepts, f.GFWEffect = probeGFW(cc, cand)
		f.Middlebox = probeMiddleboxes(cc, cand)
		f.UsableInsertion = f.ServerIgnores && f.GFWAccepts
		findings = append(findings, f)
	}
	return findings
}

// probeGFW replays a handshake plus the candidate against a live
// evolved device and observes whether the device processed it.
func probeGFW(cc connContext, cand Candidate) (bool, string) {
	sim := netem.NewSimulator(97)
	cfg := gfw.Config{Model: gfw.ModelEvolved2017, Keywords: []string{probeKeyword}, DetectionMissProb: -1, ResyncOnRSTProb: 1}
	dev := gfw.NewDevice("gfw-probe", cfg, sim.Rand())
	path := &netem.Path{Sim: sim}
	for i := 0; i < 3; i++ {
		path.Hops = append(path.Hops, &netem.Hop{Name: "r", Router: true, Latency: time.Millisecond})
	}
	path.Hops[1].Taps = []netem.Processor{dev}

	var events []string
	dev.OnEvent = func(ev gfw.Event) { events = append(events, ev.Kind) }

	// Synthetic handshake.
	path.SendFromClient(packet.NewTCP(cc.cli, cc.cport, cc.srv, cc.sport, packet.FlagSYN, cc.clientISS, 0, nil))
	path.SendFromServer(packet.NewTCP(cc.srv, cc.sport, cc.cli, cc.cport,
		packet.FlagSYN|packet.FlagACK, cc.serverISS, cc.clientISS.Add(1), nil))
	path.SendFromClient(packet.NewTCP(cc.cli, cc.cport, cc.srv, cc.sport,
		packet.FlagACK, cc.clientISS.Add(1), cc.serverISS.Add(1), nil))
	sim.Run(1000)

	path.SendFromClient(cand.build(cc))
	sim.Run(1000)

	if cand.Control {
		// A control packet is "accepted" if it changed the TCB state.
		for _, k := range events {
			if k == "teardown" {
				return true, "TCB torn down (previous state terminated)"
			}
			if k == "resync" {
				return true, "TCB moved to RESYNC"
			}
		}
		return false, "no state change"
	}
	for _, k := range events {
		if k == "detect" {
			return true, "payload ingested and keyword detected"
		}
	}
	return false, "payload not processed"
}

// probeMiddleboxes pushes the candidate through each Table 2 profile
// chain repeatedly and classifies the outcome.
func probeMiddleboxes(cc connContext, cand Candidate) map[middlebox.ProfileName]string {
	out := make(map[middlebox.ProfileName]string)
	const trials = 25
	for _, prof := range middlebox.AllProfiles() {
		sim := netem.NewSimulator(7)
		chain := middlebox.BuildProfile(prof, sim.Rand())
		path := &netem.Path{Sim: sim}
		path.Hops = append(path.Hops, &netem.Hop{Name: "mb", Router: true, Latency: time.Millisecond, Processors: chain})
		delivered := 0
		path.Server = netem.EndpointFunc(func(*packet.Packet) { delivered++ })
		for i := 0; i < trials; i++ {
			path.SendFromClient(cand.build(cc))
		}
		sim.Run(100000)
		switch {
		case delivered == trials:
			out[prof] = "pass"
		case delivered == 0:
			out[prof] = "dropped"
		default:
			out[prof] = "sometimes dropped"
		}
	}
	return out
}

// FormatTable3 renders the findings in the layout of Table 3.
func FormatTable3(findings []Finding) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %-28s %-10s %-38s %s\n", "TCP State", "GFW State", "TCP Flags", "Condition", "Insertion?")
	for _, f := range findings {
		if !f.UsableInsertion {
			continue
		}
		states := make([]string, len(f.Candidate.States))
		for i, st := range f.Candidate.States {
			states[i] = st.String()
		}
		gfwState := "ESTABLISHED/RESYNC"
		if len(f.Candidate.States) == 2 && f.Candidate.States[0] == tcpstack.SynRecv &&
			f.Candidate.Condition[0] != 'W' && f.Candidate.Flags == "Any" &&
			f.Candidate.Condition != "Has unsolicited MD5 Optional Header" {
			gfwState = "Any"
		}
		if f.Candidate.Flags == "Any" && (f.Candidate.Condition == "IP total length > actual length" ||
			f.Candidate.Condition == "TCP Header Length < 20" || f.Candidate.Condition == "TCP checksum incorrect") {
			fmt.Fprintf(&b, "%-24s %-28s %-10s %-38s yes\n", "Any", "Any", "Any", f.Candidate.Condition)
			continue
		}
		fmt.Fprintf(&b, "%-24s %-28s %-10s %-38s yes\n",
			strings.Join(states, "/"), gfwState, f.Candidate.Flags, f.Candidate.Condition)
	}
	return b.String()
}

// CrossValidation summarizes the §5.3 stack differences: candidates
// whose disposition on an older stack diverges from Linux 4.4.
func CrossValidation(findings []Finding) []string {
	var notes []string
	for _, f := range findings {
		ref := f.ServerVerdicts["linux-4.4"]
		for _, prof := range []string{"linux-4.0", "linux-3.14", "linux-2.6.34", "linux-2.4.37"} {
			got := f.ServerVerdicts[prof]
			for i := range ref {
				if i < len(got) && got[i] != ref[i] {
					notes = append(notes, fmt.Sprintf("%s: %q differs: 4.4=%s vs %s=%s",
						prof, f.Candidate.Condition, ref[i], prof, got[i]))
				}
			}
		}
	}
	return notes
}
