"""Co-optimization of voxel soft-robot bodies and neural controllers.

Robots are 5x5 grids of material voxels simulated as damped mass-spring
networks. Controllers are small MLPs, either one global network for the whole
body or one shared modular network copied into every actuator. A (mu+lambda)
evolutionary algorithm with age-fitness Pareto selection optimizes bodies and
brains for flat-terrain locomotion.
"""
