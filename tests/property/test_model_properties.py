"""Property-based tests on kernel, versions, IORs, ports, packaging."""

from __future__ import annotations

from hypothesis import assume, given, settings, strategies as st

from repro.components.ports import (
    EventSinkPort,
    EventSourcePort,
    PortSet,
    ReceptaclePort,
)
from repro.orb.ior import IOR
from repro.registry.prediction import EwmaSlope
from repro.sim.kernel import Environment
from repro.util.errors import ValidationError
from repro.xmlmeta.versions import Version, VersionRange

# -- kernel ---------------------------------------------------------------------

@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_kernel_fires_timeouts_in_time_order(delays):
    env = Environment()
    fired = []
    for d in delays:
        env.timeout(d).callbacks.append(
            lambda _e, d=d: fired.append(env.now))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert env.now == max(delays)


@given(st.lists(st.tuples(st.floats(min_value=0, max_value=100,
                                    allow_nan=False),
                          st.integers(0, 4)),
                min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_kernel_trace_deterministic(spec):
    def run():
        env = Environment()
        trace = []

        def proc(pid, delay, repeats):
            for _ in range(repeats + 1):
                yield env.timeout(delay)
                trace.append((round(env.now, 9), pid))
        for pid, (delay, repeats) in enumerate(spec):
            env.process(proc(pid, delay, repeats))
        env.run()
        return trace
    assert run() == run()


# -- versions ----------------------------------------------------------------------

_versions = st.builds(Version,
                      st.integers(0, 99), st.integers(0, 99),
                      st.integers(0, 99))


@given(_versions)
def test_version_str_parse_roundtrip(v):
    assert Version.parse(str(v)) == v


@given(_versions, _versions, _versions)
def test_version_ordering_transitive(a, b, c):
    if a <= b and b <= c:
        assert a <= c


@given(_versions, _versions)
def test_version_range_bounds_consistent(lo, hi):
    assume(lo < hi)
    rng = VersionRange(f">={lo}, <{hi}")
    assert rng.matches(lo)
    assert not rng.matches(hi)


@given(_versions)
def test_empty_range_matches_everything(v):
    assert VersionRange("").matches(v)


# -- IORs ----------------------------------------------------------------------------

_part = st.from_regex(r"[A-Za-z0-9._:-]{1,12}", fullmatch=True)


@given(_part, _part, _part, _part)
def test_ior_roundtrip(repo, host, adapter, key):
    assume("@" not in repo)
    ior = IOR(f"IDL:{repo}:1.0", host, adapter, key)
    assert IOR.from_string(ior.to_string()) == ior


# -- port sets ----------------------------------------------------------------------

@given(st.lists(st.tuples(st.sampled_from(["add_r", "add_src", "add_snk",
                                           "remove"]),
                          st.integers(0, 5)),
                max_size=40))
@settings(max_examples=100, deadline=None)
def test_portset_matches_dict_model(ops):
    ports = PortSet()
    model: dict[str, str] = {}
    for action, n in ops:
        name = f"p{n}"
        if action == "remove":
            if name in model:
                ports.remove(name)
                del model[name]
        else:
            if name in model:
                continue
            if action == "add_r":
                ports.add(ReceptaclePort(name, "IDL:t/X:1.0"))
                model[name] = "receptacle"
            elif action == "add_src":
                ports.add(EventSourcePort(name, "k"))
                model[name] = "event-source"
            else:
                ports.add(EventSinkPort(name, "k"))
                model[name] = "event-sink"
    assert sorted(ports.names()) == sorted(model)
    for name, kind in model.items():
        assert ports.get(name).kind == kind


# -- packaging -------------------------------------------------------------------------

@given(st.integers(0, 5000), st.floats(0.0, 1.0))
@settings(max_examples=50, deadline=None)
def test_synthetic_payload_size_exact(size, compressibility):
    from repro.packaging.binaries import synthetic_payload
    data = synthetic_payload(size, seed=1, compressibility=compressibility)
    assert len(data) == size


@given(st.binary(min_size=1, max_size=2000))
@settings(max_examples=50, deadline=None)
def test_package_member_bytes_roundtrip(payload):
    from repro.packaging.package import ComponentPackage, PackageBuilder
    from repro.xmlmeta.descriptors import (
        ComponentTypeDescriptor, ImplementationDescriptor,
        SoftwareDescriptor)
    from repro.xmlmeta.versions import Version as V
    soft = SoftwareDescriptor(
        name="P", version=V(1, 0),
        implementations=[ImplementationDescriptor(
            "*", "*", "*", "e", "bin/any/x")])
    comp = ComponentTypeDescriptor(name="P")
    builder = PackageBuilder(soft, comp)
    builder.add_binary("bin/any/x", payload)
    pkg = ComponentPackage(builder.build())
    assert pkg.member("bin/any/x") == payload
    assert pkg.implementation_for("a", "b", "c").binary_path == "bin/any/x"


# -- prediction ----------------------------------------------------------------------

@given(st.lists(st.floats(-1000, 1000, allow_nan=False),
                min_size=2, max_size=50),
       st.floats(0.01, 1.0))
@settings(max_examples=100, deadline=None)
def test_ewma_slope_bounded_by_observed_extremes(values, alpha):
    model = EwmaSlope(alpha=alpha)
    slopes = [model.observe(float(t), v) for t, v in enumerate(values)]
    diffs = [b - a for a, b in zip(values, values[1:])]
    lo, hi = min(diffs + [0.0]), max(diffs + [0.0])
    # EWMA of the instantaneous slopes can never exit their range.
    for s in slopes:
        assert lo - 1e-9 <= s <= hi + 1e-9


# -- monte carlo split -----------------------------------------------------------------

@given(st.integers(0, 10**6), st.integers(1, 64))
@settings(max_examples=100, deadline=None)
def test_montecarlo_split_preserves_sample_budget(total, ways):
    from repro.grid.worker import MonteCarloPiExecutor
    ex = MonteCarloPiExecutor()
    ex.total_samples = total
    shards = ex.split(ways)
    assert len(shards) == ways
    assert sum(s["samples"] for s in shards) == total
    sizes = [s["samples"] for s in shards]
    assert max(sizes) - min(sizes) <= 1  # fair split
