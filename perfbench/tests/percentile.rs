//! The tail rule: the highest percentile (capped at p99, floored at
//! p50) with at least ten samples beyond it, reported with its sample
//! count.

use perfbench::stats::tail;

fn beyond(xs: &[f64], value: f64) -> usize {
    xs.iter().filter(|x| **x > value).count()
}

#[test]
fn thousand_samples_give_p99_with_ten_beyond() {
    let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
    let t = tail(&xs).expect("samples present");
    assert_eq!(t.level, 99.0);
    assert_eq!(t.samples, 1000);
    assert_eq!(t.value, 990.0);
    assert_eq!(beyond(&xs, t.value), 10);
}

#[test]
fn large_sample_counts_stay_capped_at_p99() {
    let xs: Vec<f64> = (1..=5000).map(f64::from).collect();
    let t = tail(&xs).expect("samples present");
    assert_eq!(t.level, 99.0);
    assert!(beyond(&xs, t.value) >= 10);
}

#[test]
fn level_is_the_highest_with_ten_beyond() {
    for n in [20usize, 37, 100, 250, 999] {
        // Shuffled input: the rule must not depend on sample order.
        let xs: Vec<f64> = (0..n).map(|i| ((i * 7919) % n) as f64).collect();
        let t = tail(&xs).expect("samples present");
        assert_eq!(t.samples, n);
        assert!(beyond(&xs, t.value) >= 10, "n={n}: {t:?}");
        // One percent higher would leave fewer than ten beyond.
        let next = t.level + 1.0;
        if next <= 99.0 {
            let rank = ((next * n as f64) / 100.0).ceil() as usize;
            assert!(n - rank < 10, "n={n}: p{next} still has ten beyond");
        }
    }
}

#[test]
fn small_sample_counts_fall_back_to_the_median() {
    let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
    let t = tail(&xs).expect("samples present");
    assert_eq!((t.level, t.value, t.samples), (50.0, 3.0, 5));
    let one = tail(&[7.0]).expect("one sample");
    assert_eq!((one.level, one.value, one.samples), (50.0, 7.0, 1));
    assert!(tail(&[]).is_none());
}
