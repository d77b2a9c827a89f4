import math

from poscocycle.stats import t975

U = 2.0 ** -53  # unit roundoff


def _density(t, df):
    log_c = math.lgamma(0.5 * (df + 1)) - math.lgamma(0.5 * df) - 0.5 * math.log(df * math.pi)
    return math.exp(log_c - 0.5 * (df + 1) * math.log1p(t * t / df))


class TestTQuantile:
    def test_matches_stdtrit_for_every_df_to_2000(self):
        # Error analysis of t975 for df >= 3, to first order in u = 2^-53,
        # with libm's log1p, atan and sqrt within 1 ulp (2u relative) and
        # numpy's exp within 4 ulp (8u):
        # - x = t^2/df carries u; L = log1p(x) 3u (condition number <= 1);
        #   the exponent k L of a power, k < df/2, so k L <= t^2/2, carries
        #   3.5u k L <= 1.75 t^2 u absolutely, hence exp(-k L) 1.75 t^2 u + 8u;
        # - a term adds u/2 for its correctly rounded coefficient and u/2
        #   for the product; the terms are positive and fsum rounds their
        #   sum once: the series is within (1.75 t^2 + 9.5) u;
        # - the prefactors add at most 5u (odd df: theta, t sqrt(df) /
        #   (df + t^2), the sum of positive parts and 2/pi; even df: less),
        #   so P(|T| <= t) is evaluated within (1.75 t^2 + 15) u of itself;
        # - Newton stops after a step below 2^-30 t, so its own error is
        #   below 2^-60 t^3 and the fixed point is off by that evaluation
        #   error over the slope 2 f(t), plus u t for the last subtraction.
        # That bound B holds for the reference too: against 40-digit mpmath
        # roots stdtrit stayed within 0.31 B (21 ulp) over these df, so the
        # two may differ by B + B.
        from scipy.special import stdtrit

        for df in range(3, 2000):
            ref = float(stdtrit(df, 0.975))
            bound = (1.75 * ref * ref + 15.0) * U * 0.95 / (2.0 * _density(ref, df)) + U * ref
            assert abs(t975(df) - ref) <= 2.0 * bound, df

    def test_closed_forms(self):
        # df = 1 (Cauchy) and df = 2 have closed-form distribution functions;
        # each is evaluated here within 2.5e-16, and the quantile's own
        # rounding (a few u) moves it by less than 2e-17: 4u covers both
        t1, t2 = t975(1), t975(2)
        assert abs(0.5 + math.atan(t1) / math.pi - 0.975) <= 4 * U
        assert abs(0.5 + t2 / (2.0 * math.sqrt(2.0 + t2 * t2)) - 0.975) <= 4 * U
