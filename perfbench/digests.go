package main

// canonical holds the output digest of each workload at the canonical
// seeds 1 to 3, recorded at the commit that added the benchmark. A run
// at one of these seeds must reproduce its digest exactly: the
// benchmark is then known to time the same program output. Outputs are
// independent of the machine (the sharded core's result does not
// depend on S or W), so the table holds on any host.
var canonical = map[string]map[int64]string{
	"place_static":  {1: "d181faf308465099", 2: "94f030dd58fc9914", 3: "57969315741bb3ef"},
	"maint_sharded": {1: "ce19be71cdbb0a57", 2: "eb09574842280c64", 3: "a08dae05b75d48aa"},
	"churn_repair":  {1: "cda771175d14a5dd", 2: "a903791015e2167e", 3: "fc8db56c5d55e285"},
}

// canonicalDigest returns the recorded digest, or "" for a seed
// without one.
func canonicalDigest(workload string, seed int64) string {
	return canonical[workload][seed]
}
