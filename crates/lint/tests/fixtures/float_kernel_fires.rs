// Fixture: fused and reassociated float arithmetic inside a kernel.

// flowtune-lint: hot, float-kernel
pub fn rate_pass(weights: &[f64], prices: &[f64], out: &mut [f64]) -> f64 {
    for ((w, p), o) in weights.iter().zip(prices).zip(out.iter_mut()) {
        *o = w.mul_add(*p, 1.0); // line 6: fires (fused)
    }
    let total: f64 = out.iter().sum(); // line 8: fires (reduction)
    unsafe { std::intrinsics::fadd_fast(total, 1.0) } // line 9: fires (fast-math)
}

pub fn summary(values: &[f64]) -> f64 {
    values.iter().sum() // not a kernel: quiet
}
