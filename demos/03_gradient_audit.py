#!/usr/bin/env python3
"""A look inside the reverse-mode autodiff engine that trains the model.

Run from the repository root:

    python3 demos/03_gradient_audit.py

Three stages:

1. differentiate a small expression by hand and compare against the tape;
2. spot-check kinked ops at their kinks: the pairwise minimum, and the
   fused cone-entity distance at aperture 0;
3. run the full-loss gradient audit the acceptance suite relies on —
   analytic gradients vs central differences through projection,
   intersection, negation and union paths of the real model.
"""

import time

import numpy as np

from conequery import autodiff as ad
from conequery.model import ConeBatch, cone_entity_distance
from conequery.training import gradient_check_model


def stage_1() -> None:
    print("== 1. a tape differentiates sin(x*y) + |x| ==")
    tape = ad.Tape()
    x = tape.leaf([0.8])
    y = tape.leaf([-1.3])
    loss = ad.total(ad.add(ad.sin(ad.multiply(x, y)), ad.absval(x)))
    tape.backward(loss)

    xv, yv = 0.8, -1.3
    hand_dx = np.cos(xv * yv) * yv + np.sign(xv)
    hand_dy = np.cos(xv * yv) * xv
    print(f"  d/dx: tape {x.grad[0]:+.12f}   by hand {hand_dx:+.12f}")
    print(f"  d/dy: tape {y.grad[0]:+.12f}   by hand {hand_dy:+.12f}")


def stage_2() -> None:
    print("\n== 2. kinks get a fixed subgradient convention ==")
    for a_val, note in ((0.4, "away from the tie: gradient follows the smaller arm"),
                        (0.7, "exactly at the tie: convention picks the first arm")):
        tape = ad.Tape()
        a = tape.leaf([a_val])
        b = tape.leaf([0.7])
        tape.backward(ad.total(ad.minimum(a, b)))
        print(f"  min(a={a_val}, b=0.7): da={a.grad[0]:.0f} db={b.grad[0]:.0f}  ({note})")

    # A point cone (aperture 0 in dimension 0): upper and lower boundary tie,
    # so the distance has a kink in that aperture coordinate.
    axis, aperture = np.array([[0.4, -1.1]]), np.array([[0.0, 0.9]])
    entity = np.array([[1.3, 2.0]])

    def dist(a, p, e):
        return ad.total(cone_entity_distance(ConeBatch(a, p), e, 0.5))

    tape = ad.Tape()
    leaves = [tape.leaf(x) for x in (axis, aperture, entity)]
    tape.backward(dist(*leaves))
    h = 1e-6
    base = float(dist(axis, aperture, entity))
    right = (float(dist(axis, aperture + [[h, 0.0]], entity)) - base) / h
    left = (base - float(dist(axis, aperture - [[h, 0.0]], entity))) / h
    worst = ad.grad_check(dist, [axis, aperture, entity], subgradient=True)
    print(f"  fused cone-entity distance at aperture 0: d/d(aperture) = "
          f"{leaves[1].grad[0, 0]:+.6f}, one-sided slopes [{min(left, right):+.6f}, "
          f"{max(left, right):+.6f}]")
    print(f"  subgradient check over every input coordinate: {worst:.1e}"
          f"  ({'PASS' if worst < 1e-4 else 'FAIL'} at 1e-4)")


def stage_3() -> None:
    print("\n== 3. full-loss audit on the real model ==")
    print("  20 random query instances at d=8, every structure exercised,")
    print("  every reachable parameter coordinate probed by central differences")
    start = time.perf_counter()
    worst = gradient_check_model(n_instances=20, d=8, seed=0)
    elapsed = time.perf_counter() - start
    print(f"  worst relative error: {worst:.3e}  ({elapsed:.1f}s)")
    print(f"  acceptance bar is 1e-4: {'PASS' if worst < 1e-4 else 'FAIL'}")


if __name__ == "__main__":
    stage_1()
    stage_2()
    stage_3()
