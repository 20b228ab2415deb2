"""Tooling layered on the reflection architecture.

- :mod:`repro.tools.licensing` — pay-per-use accounting over container
  events (§2.1.1 "pay-per-use information: describes the licensing
  model for this component").

The command-line front ends live beside it: ``lint`` (descriptors and
IDL), ``simlint`` (the source tree itself, C20), ``chaos`` (seeded
campaigns, C19) and ``obs_report``.  The paper's visual builder (§5
future work) is not modelled: an application is an
:class:`~repro.xmlmeta.descriptors.AssemblyDescriptor` built directly
and checked by :class:`~repro.analysis.DeploymentGate`.
"""

from repro.tools.licensing import UsageMeter

__all__ = ["UsageMeter"]
