PYTHON ?= python
export PYTHONPATH := src

.PHONY: check test selftest lint lint-src golden ledger bench claim-tables \
	bench-orb bench-eventbus bench-federation bench-chaos bench-simlint \
	spine-ab faults fuzz chaos chaos-soak loc

# The one-stop gate: descriptor + source lint, the end-to-end
# selftests, the sim-exact ledger, then the full tier-1 suite -- which
# also holds EXPERIMENTS.md's marked tables and their claims (C14's
# availability among them) to fresh runs.
check: lint lint-src selftest ledger test

# static verification of the shipped IDL + descriptor fixtures
lint:
	$(PYTHON) -m repro.tools.lint examples/descriptors

# determinism / control-loop / paired-effect / name-hygiene lint of
# the source tree itself (C20)
lint-src:
	$(PYTHON) -m repro.tools.simlint src/repro

# the sim-exact ledger (tests/golden/sim_ledger.json): every simulated
# number of the spine workloads at seeds 5 and 11 plus seven chaos
# report digests.  `golden` rewrites it -- in the same commit as any
# change that moves a simulated number -- and `ledger` compares it.
golden:
	$(PYTHON) benchmarks/sim_ledger.py --write

ledger:
	$(PYTHON) benchmarks/sim_ledger.py --check

selftest:
	$(PYTHON) -m repro.tools.obs_report --selftest
	$(PYTHON) benchmarks/bench_overload.py --selftest
	$(PYTHON) benchmarks/bench_lint_gate.py --selftest
	$(PYTHON) benchmarks/bench_orb_floor.py --selftest
	$(PYTHON) benchmarks/bench_eventbus.py --selftest
	$(PYTHON) benchmarks/bench_federation.py --selftest
	$(PYTHON) benchmarks/bench_chaos.py --selftest
	$(PYTHON) benchmarks/bench_simlint.py --selftest
	$(PYTHON) benchmarks/spine/run.py --selftest

test:
	$(PYTHON) -m pytest -x -q

# fault-injection / churn integration tests only
faults:
	$(PYTHON) -m pytest -m faults -q

# seeded wire-fuzz of the GIOP/CDR decoder
fuzz:
	$(PYTHON) -m pytest -m fuzz -q

# seeded chaos campaigns against the live scenario (C19)
chaos:
	$(PYTHON) -m repro.tools.chaos --campaigns 5

# the long soak (seeds 100-199): the campaigns' own last line is the
# violation count, then the wall time.  Not part of check or tier-1.
chaos-soak:
	@start=$$(date +%s); \
	$(PYTHON) -m repro.tools.chaos --seed 100 --campaigns 100; \
	status=$$?; \
	echo "chaos-soak wall: $$(( $$(date +%s) - start )) s"; \
	exit $$status

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

# every bench's claim tables, printed, with pytest-benchmark off: the run
# a change's tables are compared in.  Not part of check.
claim-tables:
	$(PYTHON) -m pytest benchmarks/ -s -q --benchmark-disable

# regenerate BENCH_orb.json (ORB codec/dispatch microbenchmarks)
bench-orb:
	$(PYTHON) benchmarks/bench_to_json.py

# regenerate BENCH_eventbus.json (C17 batched fan-out vs p2p oneways)
bench-eventbus:
	$(PYTHON) benchmarks/bench_to_json.py --suite eventbus

# regenerate BENCH_federation.json (C18 sharded registry vs flat flood)
bench-federation:
	$(PYTHON) benchmarks/bench_to_json.py --suite federation

# alternating parent/change pairs of one spine workload (the
# choosing-metrics guide's section 8):
#   make spine-ab WORKLOAD=registry_churn [PAIRS=10] [SEED=11] [BASE=HEAD]
PAIRS ?= 10
SEED ?= 11
BASE ?= HEAD
spine-ab:
	$(PYTHON) benchmarks/ab_pairs.py --workload $(WORKLOAD) \
		--pairs $(PAIRS) --seed $(SEED) --base $(BASE)

# regenerate BENCH_chaos.json (C19 seeded chaos campaigns)
bench-chaos:
	$(PYTHON) benchmarks/bench_to_json.py --suite chaos

# regenerate BENCH_simlint.json (C20 seeded-defect lint corpus)
bench-simlint:
	$(PYTHON) benchmarks/bench_to_json.py --suite simlint

# code lines (non-blank, not a comment) of src/: the total, each package
# under src/repro/, and the largest file last -- the figure every
# "less code" claim in CHANGES.md is made in
define LOC_PY
import pathlib
def loc(path):
    lines = (line.strip() for line in path.read_text().splitlines())
    return sum(1 for line in lines if line and not line.startswith("#"))
files = {path: loc(path) for path in pathlib.Path("src").rglob("*.py")}
def under(root):
    return sum(n for path, n in files.items() if root in path.parents)
print(f"{under(pathlib.Path('src')):7,}  src")
for pkg in sorted(p for p in pathlib.Path("src/repro").iterdir() if p.is_dir()):
    print(f"{under(pkg):7,}  {pkg}")
path, n = max(files.items(), key=lambda item: item[1])
print(f"{n:7,}  {path}  (largest file)")
endef
export LOC_PY
loc:
	@$(PYTHON) -c "$$LOC_PY"
