package main

import "fmt"

// spec names one metric and its unit, as BENCHMARK.json lists it.
type spec struct{ name, unit string }

// endToEnd is printed by every untraced run. Each workload gives each
// metric its own meaning (README.md): ops are reader-epochs on city,
// reports on ingest and HTTP requests on query.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"max_rss_mb", "MiB"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p99", "ms"},
}

// perLayer is printed by every traced run. A layer the workload's
// traced run does not call reads 0.
var perLayer = []spec{
	// city: harness
	{"transponder.reply_ms", "ms"},
	{"rfsim.capture_ms", "ms"},
	{"rfsim.captures", "count"},
	{"harness_ms_per_reader_epoch", "ms"},
	// city: system
	{"core.analyze_ms", "ms"},
	{"core.spikes", "count"},
	{"core.decode_ms", "ms"},
	{"core.decode_targets", "count"},
	{"core.decode_collisions", "count"},
	{"core.decode_yield", "ratio"},
	{"core.count_abs_err", "count"},
	{"core.decode_precision", "ratio"},
	{"reader.report_us", "us"},
	{"system_ms_per_reader_epoch", "ms"},
	{"trace.replay_ms_per_reader_epoch", "ms"},
	{"city.run_ms_per_reader_epoch", "ms"},
	// city and ingest
	{"telemetry.marshal_us", "us"},
	{"collector.send_us", "us"},
	// ingest
	{"cluster.route_ns", "ns"},
	{"telemetry.unmarshal_us", "us"},
	{"telemetry.bytes", "B"},
	{"collector.land_wait_us", "us"},
	{"collector.store_ingest_us", "us"},
	// query
	{"api.serve_us_p50", "us"},
	{"api.serve_us_p99", "us"},
	{"api.http_overhead_us_p50", "us"},
	{"api.cache_hit_ratio", "ratio"},
	{"api.not_found_ratio", "ratio"},
	{"cluster.find_car_us", "us"},
	{"cluster.decoded_id_at_us", "us"},
	{"cluster.sightings_by_cfo_us", "us"},
	{"collector.speed_check_us", "us"},
	{"collector.history_reports", "count"},
	{"collector.decoded_ids", "count"},
	{"loadgen.writer_lag_ms_p99", "ms"},
	{"loadgen.writer_land_ms_p99", "ms"},
}

// complete checks a run's metrics against the list its mode prints:
// an untraced run must have measured every end-to-end metric, and a
// traced run's unmeasured layers are filled with 0. A metric outside
// the list or under the wrong unit is a bug in the workload.
func complete(res *result, traced bool) error {
	list := endToEnd
	if traced {
		list = perLayer
	}
	units := make(map[string]string, len(list))
	for _, s := range list {
		units[s.name] = s.unit
		if _, ok := res.metrics[s.name]; !ok {
			if !traced {
				return fmt.Errorf("metric %s was not measured", s.name)
			}
			res.set(s.name, 0, s.unit)
		}
	}
	for name, m := range res.metrics {
		if u, ok := units[name]; !ok || u != m.Unit {
			return fmt.Errorf("metric %s (%s) is not in the list for this mode", name, m.Unit)
		}
	}
	return nil
}
