#!/usr/bin/env python3
"""Print the cover family verdict table for a range of inputs.

Sweeps cover degree m and image degree, for a fixed genus, and tabulates
what the family of m-fold covers contributes: its dimension against the
expected dimension of the ambient space of maps, and the verdict tag.

    python scripts/verdict_table.py --genus 4
    python scripts/verdict_table.py --genus 2 --max-degree 8 --image-genus 1
"""

import argparse

from toricbn import bn_verdict, to_json


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--genus", type=int, default=4)
    parser.add_argument("--max-cover", type=int, default=5)
    parser.add_argument("--max-degree", type=int, default=6)
    parser.add_argument("--image-genus", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    header = f"{'m':>3} {'deg':>4} {'expected':>9} {'family':>7} {'excess':>7}  verdict"
    print(header)
    print("-" * len(header))
    for m in range(2, args.max_cover + 1):
        for deg in range(2, args.max_degree + 1):
            v = bn_verdict(
                args.genus, m, image_degree=deg, image_genus=args.image_genus
            )
            doc = to_json(v)
            family = doc.get("family_dim", "")
            excess = doc.get("excess", "")
            print(
                f"{m:>3} {deg:>4} {v.expected_dim:>9} {family!s:>7} "
                f"{excess!s:>7}  {v.outcome.tag}"
            )


if __name__ == "__main__":
    main()
