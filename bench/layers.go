package main

// endToEndValues turns a run into the five end-to-end metrics.
func endToEndValues(m *measured) map[string]float64 {
	var cpu []float64
	for _, c := range m.chunks {
		if !c.traced {
			cpu = append(cpu, float64(c.cpu)/float64(c.packets))
		}
	}
	// Every timing is its quiet value (quietShare): what the code does when
	// the host's other tenants leave it alone. That also leaves out the
	// chunks a collection cycle ran in; go.gc_* and go.alloc_* count those.
	return map[string]float64{
		"pps":        quietRate(m.untracedPPS()),
		"lat_p50_us": quiet(m.loneMed) / 1e3,
		// Every thread's CPU time, so that work pushed onto the other core
		// in a chunk still counts in it.
		"cpu_ns_per_pkt":      quiet(cpu),
		"heap_bytes_per_conn": float64(int64(m.heapLive)-int64(m.heapBase)) / float64(m.conns),
		"setup_s":             quiet(m.setups),
	}
}

// ratio is a/b, 0 when b is 0: a counter that never moved on a workload
// reports its metrics as 0 there.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerValues turns a traced run into the per-layer metrics. Timings come
// from the ledger and from the spans of the traced chunks; counts are
// deltas of the switch's own counters over the saturation phase and the
// lone slices between its chunks.
func layerValues(m *measured) map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		v[d.name] = 0
	}
	dp0, dp1 := m.before.st.Dataplane, m.after.st.Dataplane
	cp0, cp1 := m.before.st.Controlplane, m.after.st.Controlplane
	d := func(a, b uint64) float64 { return float64(b - a) }
	pkts := d(dp0.Packets, dp1.Packets)
	if m.sp.tunnel {
		pkts = d(m.before.tun.RxPackets, m.after.tun.RxPackets)
	}
	inserted := d(cp0.Inserted, cp1.Inserted)

	if lg := m.lg; lg != nil {
		v["netproto.parse_ns"] = lg.parse
		v["netproto.rewrite_ns"] = lg.rewrite
		v["hashing.keyhash_ns"] = lg.keyHash
		v["hashing.digest_ns"] = lg.digest
		v["cuckoo.lookup_ns"] = lg.lookup
		v["dataplane.selectdip_ns"] = lg.selectDIP
		v["dataplane.process_frame_ns"] = lg.processFrame
		v["silkroad.process_frames_ns"] = lg.processFrames
		v["learnfilter.offer_ns"] = lg.offer
		v["learnfilter.drain_ns_per_event"] = lg.drainPerEvent
		v["cuckoo.insert_ns"] = lg.insert
		v["bloom.insert_ns"] = lg.bloomInsert
		v["bloom.contains_ns"] = lg.bloomLookup
		v["netproto.lanehash_ns"] = lg.laneHash
	}

	spans := m.rec.totals(nil)
	adv, end, upd := spans[spanAdvance], spans[spanEndConn], spans[spanUpdate]
	// Advancing the control plane costs a packet its share of the batch's
	// AdvanceTo call plus the poll ProcessFramesInto makes for every frame.
	v["ctrlplane.advance_ns_per_pkt"] = ratio(float64(adv.Nanos), float64(adv.Packets))
	if m.lg != nil {
		v["ctrlplane.advance_ns_per_pkt"] += m.lg.advancePoll
		v["ledger.sum_ns"] = m.lg.hitPathSum()
		v["ledger.unaccounted_ns"] = m.lg.whole - m.lg.hitPathSum()
	}
	v["ctrlplane.endconn_ns"] = ratio(float64(end.Nanos), float64(end.Count))
	if upd.Count > 0 {
		// An update costs its UpdatePool call plus what it adds to the
		// AdvanceTo calls that step its three phases: the sampled calls made
		// with an update in flight, over the going rate of those made idle.
		busy := m.rec.totals(func(s *span) bool { return s.Name == spanAdvance && s.ActiveUpdates > 0 })[spanAdvance]
		idle := m.rec.totals(func(s *span) bool { return s.Name == spanAdvance && s.ActiveUpdates == 0 })[spanAdvance]
		extra := 0.0
		if busy.Count > 0 && idle.Count > 0 {
			perCall := float64(busy.Nanos)/float64(busy.Count) - float64(idle.Nanos)/float64(idle.Count)
			// busy.Count sampled calls stand for 64 times as many.
			extra = perCall * float64(busy.Count) * 64 / float64(upd.Count)
		}
		v["ctrlplane.update_us"] = (float64(upd.Nanos)/float64(upd.Count) + extra) / 1e3
	}

	v["cuckoo.moves_per_insert"] = ratio(float64(m.after.moves-m.before.moves), inserted)
	v["cuckoo.load_factor"] = m.load
	v["ctrlplane.inserts_per_s"] = ratio(inserted, m.wall.Seconds())
	v["ctrlplane.insert_queue_max"] = float64(m.queueMax)
	v["ctrlplane.duplicate_learns_per_kconn"] = 1e3 * ratio(d(cp0.DuplicateLearns, cp1.DuplicateLearns), inserted)
	v["dataplane.learn_offers_per_kpkt"] = 1e3 * ratio(d(dp0.LearnOffers, dp1.LearnOffers), pkts)
	v["go.allocs_per_pkt"] = ratio(d(m.before.mem.Mallocs, m.after.mem.Mallocs), pkts)
	v["go.alloc_bytes_per_pkt"] = ratio(d(m.before.mem.TotalAlloc, m.after.mem.TotalAlloc), pkts)
	v["go.gc_cycles"] = float64(m.after.mem.NumGC - m.before.mem.NumGC)
	v["go.gc_pause_ms"] = d(m.before.mem.PauseTotalNs, m.after.mem.PauseTotalNs) / 1e6

	v["ctrlplane.updates_completed"] = d(cp0.UpdatesCompleted, cp1.UpdatesCompleted)
	v["ctrlplane.version_reuses"] = d(cp0.VersionReuses, cp1.VersionReuses)
	v["ctrlplane.fp_resolved"] = d(cp0.DigestFPsResolved, cp1.DigestFPsResolved) + d(cp0.BloomFPsResolved, cp1.BloomFPsResolved)
	v["dataplane.transit_checks_per_kpkt"] = 1e3 * ratio(d(dp0.TransitChecks, dp1.TransitChecks), pkts)
	v["dataplane.transit_hits_per_kpkt"] = 1e3 * ratio(d(dp0.TransitHits, dp1.TransitHits), pkts)
	v["dataplane.old_version_per_kpkt"] = 1e3 * ratio(d(dp0.ForwardedOldVersion, dp1.ForwardedOldVersion), pkts)
	v["dataplane.syn_redirects_per_mpkt"] = 1e6 * ratio(d(dp0.SYNRedirectConn, dp1.SYNRedirectConn)+d(dp0.SYNRedirectTransit, dp1.SYNRedirectTransit), pkts)

	hits := d(dp0.ConnHits, dp1.ConnHits)
	v["dataplane.conn_hit_ratio"] = ratio(hits, hits+d(dp0.ConnMisses, dp1.ConnMisses))
	v["dataplane.sram_bytes_per_conn"] = ratio(float64(m.sram), float64(m.conns))
	v["go.heap_live_mb"] = float64(m.heapLive) / 1e6

	whole := m.wallPerPacket(false)
	loneP99 := quantile(sortedNs(m.lone), 0.99) / 1e3
	if t := m.tun; t != nil {
		v["tunnel.window_rtt_p50_us"] = quantile(sortedNs(t.windowRTT), 0.5) / 1e3
		v["tunnel.lone_p99_us"] = loneP99
		v["tunnel.loss_share"] = ratio(float64(m.fail.lost), float64(m.attempted))
		v["tunnel.tx_errors"] = float64(m.after.tun.TxErrors - m.before.tun.TxErrors)
		v["tunnel.loopback_null_pps"] = t.nullPPS
		v["tunnel.pipeline_share"] = ratio(t.pipelineNs, whole)
	} else {
		v["silkroad.lone_p99_us"] = loneP99
		v["harness.null_ns_per_pkt"] = m.nullNs
		v["harness.share"] = ratio(m.nullNs, whole)
	}
	if tp := m.twoPipe; tp != nil {
		v["pipes.process_frames_ns_2pipe"] = tp.processFrames
		v["pipes.shard_imbalance"] = tp.imbalance
	}

	v["harness.chunk_iqr"] = summarize(m.untracedPPS()).iqrShare()
	if traced := m.wallPerPacket(true); traced > 0 {
		v["harness.trace_overhead"] = 1 - whole/traced
	}
	return v
}
