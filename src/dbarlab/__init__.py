"""dbarlab: a grid laboratory for the nonlinear d-bar equation df/dzbar = |f|^(1/2).

Modules
-------
grid     disc grids, masked fields, difference operators, field serialization
cauchy   solid Cauchy transform (direct and FFT paths)
dbar     regularized Picard solver, exact profile family, residuals, rescaling
certify  discrete inequality certificates and the chained small-sup argument
acs      the Hoelder-1/2 almost complex structure and graph residuals
kr       disc feasibility scans and pseudo-norm bound reports
ode      the 1-d square-root ODE companion: exact solutions, RK4, non-uniqueness
cli      command line front end
"""

__version__ = "0.1.0"
