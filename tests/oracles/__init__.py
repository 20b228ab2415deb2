"""Test-only oracles: code the running system never calls.

- :mod:`tests.oracles.cdr_interp` -- the reference CDR interpreter the
  generated codecs are held to (``tests/property/test_bimodal_properties.py``);
- :mod:`tests.oracles.fuzz` -- the seeded GIOP/CDR wire fuzz
  (``tests/orb/test_wire_fuzz.py``, ``make fuzz``);
- :mod:`tests.oracles.unparse` -- the IDL pretty-printer behind the
  parser's round-trip property (``tests/property/test_idl_properties.py``);
- :mod:`tests.oracles.mesh` -- the random connected graph behind the
  routing properties (``tests/property/test_routing_properties.py``).
"""
