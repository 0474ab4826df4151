"""Domain-generalization training lab.

Trains classifiers that hold up on unseen data-generating regimes without
ever seeing domain labels, by aligning class-conditional soft labels and by
shuffle-masking low-saliency input observations. Built on a small
reverse-mode autodiff core with synthetic multi-domain benchmarks and a
leave-one-domain-out evaluation harness.

Each name is imported from its module (``dglab.data``, ``dglab.trainer``,
...); the package itself exports nothing.
"""
