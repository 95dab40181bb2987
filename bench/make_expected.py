"""Write expected.json: the stored answers checked at the default seed.

    python3 bench/make_expected.py

The decide-scan hit lists come from brute_force_scan, cross-checked against
plain Fraction iteration for small n; the divisor-chain squarefree flags
come from the `divisors` subcommand.  Both were made at a commit whose
acceptance suite passes, and are only to be rewritten when an answer is
shown to have been wrong.
"""

import json

import workloads
from worker import _load_library


def main():
    lib = _load_library()
    scan = []
    for i, op in enumerate(workloads.decide_scan(workloads.DEFAULT_SEED)):
        hits = workloads.reference("decide-scan", op, lib, None, i)
        scan.append({"label": op.label, "argv": op.argv, "hits": workloads.as_runs(hits)})
    chain = []
    for op in workloads.divisor_chain(workloads.DEFAULT_SEED):
        levels = json.loads(workloads.execute("divisor-chain", op, lib))["result"]["levels"]
        chain.append({"map": op.label, "squarefree": [row["squarefree"] for row in levels]})
    data = {"decide-scan": scan, "divisor-chain": chain}
    workloads.EXPECTED_FILE.write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    main()
