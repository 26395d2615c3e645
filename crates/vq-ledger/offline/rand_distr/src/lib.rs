//! Offline stand-in for `rand_distr` 0.4: `StandardNormal`, `LogNormal`
//! and `Zipf` over the `rand` stand-in. Correct distributions, different
//! bit streams from the published crate.

pub use rand::distributions::Distribution;
use rand::Rng;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Error;

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("invalid distribution parameter")
    }
}

impl std::error::Error for Error {}

/// N(0, 1) by Marsaglia's polar method (one value kept per draw: the
/// distribution object is stateless, as upstream's is).
#[derive(Debug, Clone, Copy)]
pub struct StandardNormal;

impl Distribution<f64> for StandardNormal {
    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        loop {
            let u = 2.0 * rng.gen::<f64>() - 1.0;
            let v = 2.0 * rng.gen::<f64>() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }
}

impl Distribution<f32> for StandardNormal {
    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
        let x: f64 = self.sample(rng);
        x as f32
    }
}

#[derive(Debug, Clone, Copy)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    pub fn new(mu: f64, sigma: f64) -> Result<Self, Error> {
        if sigma.is_finite() && sigma >= 0.0 && mu.is_finite() {
            Ok(LogNormal { mu, sigma })
        } else {
            Err(Error)
        }
    }
}

impl Distribution<f64> for LogNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let z: f64 = StandardNormal.sample(rng);
        (self.mu + self.sigma * z).exp()
    }
}

/// Zipf over `1..=n` with exponent `s`, by rejection-inversion
/// (Hörmann & Derflinger), so construction is O(1) — vq builds one per
/// generated paper.
#[derive(Debug, Clone, Copy)]
pub struct Zipf {
    n: f64,
    s: f64,
    h_x1: f64,
    h_n: f64,
    threshold: f64,
}

impl Zipf {
    pub fn new(n: u64, s: f64) -> Result<Self, Error> {
        if n == 0 || !(s >= 0.0) || !s.is_finite() {
            return Err(Error);
        }
        let n = n as f64;
        let mut z = Zipf {
            n,
            s,
            h_x1: 0.0,
            h_n: 0.0,
            threshold: 0.0,
        };
        z.h_x1 = z.h(1.5) - 1.0;
        z.h_n = z.h(n + 0.5);
        z.threshold = 2.0 - z.h_inv(z.h(2.5) - (2.0f64).powf(-s));
        Ok(z)
    }

    /// Antiderivative of x^-s.
    fn h(&self, x: f64) -> f64 {
        if (self.s - 1.0).abs() < 1e-12 {
            x.ln()
        } else {
            x.powf(1.0 - self.s) / (1.0 - self.s)
        }
    }

    fn h_inv(&self, y: f64) -> f64 {
        if (self.s - 1.0).abs() < 1e-12 {
            y.exp()
        } else {
            (y * (1.0 - self.s)).powf(1.0 / (1.0 - self.s))
        }
    }
}

impl Distribution<f64> for Zipf {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        loop {
            let u = self.h_n + rng.gen::<f64>() * (self.h_x1 - self.h_n);
            let x = self.h_inv(u);
            let k = x.round().clamp(1.0, self.n);
            if k - x <= self.threshold || u >= self.h(k + 0.5) - k.powf(-self.s) {
                return k;
            }
        }
    }
}
