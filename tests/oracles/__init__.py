"""Test-only oracles: code the running system never calls.

- :mod:`tests.oracles.cdr_interp` -- the reference CDR interpreter the
  generated codecs are held to (``tests/property/test_bimodal_properties.py``);
- :mod:`tests.oracles.fuzz` -- the seeded GIOP/CDR wire fuzz
  (``tests/orb/test_wire_fuzz.py``, ``make fuzz``);
- :mod:`tests.oracles.unparse` -- the IDL pretty-printer behind the
  parser's round-trip property (``tests/property/test_idl_properties.py``);
- :mod:`tests.oracles.mesh` -- the random connected graph behind the
  routing properties (``tests/property/test_routing_properties.py``);
- :mod:`tests.oracles.codec` -- one value through the production
  codec, for round-trip and refusal tests;
- :mod:`tests.oracles.federation` -- adding a shard owner, which the
  running system never does (the liveness law and the rejoin tests);
- :mod:`tests.oracles.sumworker` -- the data-parallel component the
  aggregation tests split and merge;
- :mod:`tests.oracles.trace` -- trace connectivity, the invariant the
  tracing tests check a run's spans against;
- :mod:`tests.oracles.placement` -- the greedy planners and a
  brute-force placement search (``tests/property/test_placement_law.py``);
- :mod:`tests.oracles.tiekernel` -- the kernel's event queue with
  same-instant ties popped in a seeded permuted order
  (``tests/sim/test_tie_law.py``);
- :mod:`tests.oracles.dispatch` -- the process-per-request dispatch the
  listener's one path is held to (``tests/orb/test_processless_oracle.py``).
"""
