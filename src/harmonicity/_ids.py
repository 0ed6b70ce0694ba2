"""The ids of the embedded datasets and of the reproduction targets: the
keys of the registries in :mod:`harmonicity.empirics`, which pairs them
with their specs in this order.

They live apart so that the CLI builds its ``--dataset`` and ``reproduce``
choices without loading ``empirics``, which only ``correlate`` and
``reproduce`` use.
"""

__all__ = ["DATASET_IDS", "REPRODUCTION_TARGETS"]

#: Valid arguments to :func:`harmonicity.empirics.load_dataset`.
DATASET_IDS = ("dyads", "triads", "complete_triads", "church_modes")

#: Valid arguments to :func:`harmonicity.empirics.reproduce`.
REPRODUCTION_TARGETS = ("table2", "table3", "table4", "table6", "cor2", "cor3")
