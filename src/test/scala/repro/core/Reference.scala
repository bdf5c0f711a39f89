package repro.core

/** Naive quadratic reference implementations of the streaming k-NN invariant
  * and the ClaSP cross-validation — ground truth for the exactness tests —
  * and the linear cross-validation sweep checked against them.
  */
object Reference {

  final case class RefNeighbor(pos: Int, corr: Double)

  /** Expected k-NN row contents after processing `t` points of `xs` with a
    * `StreamingKnn(d, w, k)`.
    *
    * Invariant (see StreamingKnn scaladoc): the row of subsequence `a` holds
    * the top-k (by correlation, ties to the smaller position) over all
    * subsequences `b` with `|a-b| >= exclusion` that co-existed with `a` in
    * the sliding window:
    *   - `b <= t - w` (already arrived),
    *   - `b >= a + w - d` (window still held `b`'s start when `a` completed),
    *   - `b <= a + d - w` (window still held `a` when `b` completed).
    */
  def expectedRows(xs: Array[Double], t: Int, d: Int, w: Int, k: Int): Vector[Vector[RefNeighbor]] = {
    val excl = math.max(1, (3 * w) / 2)
    val len = math.min(t, d)
    val windowStart = t - len
    val eNow = t - w // absolute index of the newest subsequence
    val rows = Vector.newBuilder[Vector[RefNeighbor]]
    var i = 0
    while (i <= eNow - windowStart) {
      val a = windowStart + i
      val cands = Vector.newBuilder[RefNeighbor]
      var b = math.max(0, a + w - d)
      val bMax = math.min(eNow, a + d - w)
      while (b <= bMax) {
        if (math.abs(b - a) >= excl)
          cands += RefNeighbor(b, corrAt(xs, a, b, w))
        b += 1
      }
      val sorted = cands.result().sortBy(n => (-n.corr, n.pos)).take(k)
      rows += sorted
      i += 1
    }
    rows.result()
  }

  /** Pearson correlation between the `w`-subsequences at `a` and `b`,
    * clamped and zero-guarded exactly like the streaming implementation.
    */
  def corrAt(xs: Array[Double], a: Int, b: Int, w: Int): Double = {
    val sa = java.util.Arrays.copyOfRange(xs, a, a + w)
    val sb = java.util.Arrays.copyOfRange(xs, b, b + w)
    math.max(-1.0, math.min(1.0, pearson(sa, sb)))
  }

  /** Pearson correlation of two equal-length arrays from centred sums, `0`
    * when either is constant. Two passes: the means first (each taken
    * relative to the array's first value, so a constant array's is exact),
    * then the centred co-moments, so large offsets do not cancel.
    */
  def pearson(a: Array[Double], b: Array[Double]): Double = {
    require(a.length == b.length && a.nonEmpty, "pearson needs equal non-empty arrays")
    val n = a.length
    def mean(v: Array[Double]): Double = {
      var s = 0.0; var i = 0
      while (i < n) { s += v(i) - v(0); i += 1 }
      v(0) + s / n
    }
    val ma = mean(a); val mb = mean(b)
    var saa = 0.0; var sbb = 0.0; var sab = 0.0
    var i = 0
    while (i < n) {
      val u = a(i) - ma; val v = b(i) - mb
      saa += u * u; sbb += v * v; sab += u * v
      i += 1
    }
    if (saa <= 0.0 || sbb <= 0.0) 0.0
    else sab / math.sqrt(saa * sbb)
  }

  /** Naive ClaSP: for a given zero-count `zc`, build the labels from scratch,
    * vote every subsequence with its k-NN labels, and score the confusion
    * matrix. Operates on the *same* k-NN rows as the incremental scorer so
    * the comparison isolates Algorithm 3.
    */
  def naiveProfile(knn: StreamingKnn, scopeStart: Int, w: Int, useF1: Boolean): Vector[Double] = {
    val m = knn.numRows - scopeStart
    val zMax = m - w - 2
    if (zMax < 1) return Vector.empty
    val base = (knn.windowStart + scopeStart).toInt
    (1 to zMax).map { zc =>
      val yTrue = Array.tabulate(m)(j => if (j < zc) 0 else 1)
      var n11 = 0; var n10 = 0; var n01 = 0; var n00 = 0
      var j = 0
      while (j < m) {
        var zeros = 0
        var t = 0
        while (t < knn.k) {
          val local = knn.neighborPos(scopeStart + j, t) - base
          val lbl = if (local < 0) 0 else yTrue(local)
          if (lbl == 0) zeros += 1
          t += 1
        }
        val pred = if (2 * zeros >= knn.k) 0 else 1
        (yTrue(j), pred) match {
          case (1, 1) => n11 += 1
          case (1, 0) => n10 += 1
          case (0, 1) => n01 += 1
          case (0, 0) => n00 += 1
        }
        j += 1
      }
      if (useF1) {
        val f1c1 = { val den = 2 * n11 + n10 + n01; if (den == 0) 0.0 else 2.0 * n11 / den }
        val f1c0 = { val den = 2 * n00 + n01 + n10; if (den == 0) 0.0 else 2.0 * n00 / den }
        (f1c0 + f1c1) / 2.0
      } else (n11 + n00).toDouble / m
    }.toVector
  }

  /** Per local subsequence `j` of the scope, its turn point: the first split
    * `zc` at which its k-NN vote predicts 0, read from the rows' cached
    * [[StreamingKnn.turnPositions]]. Its label at split `zc` is 0 exactly
    * when its turn point is `<= zc`.
    */
  def turnPoints(knn: StreamingKnn, scopeStart: Int): Array[Int] = {
    val base = (knn.windowStart + scopeStart).toInt // positions wrap alike
    Array.tabulate(knn.numRows - scopeStart)(j => math.max(0, knn.turnPositions(scopeStart + j) - base + 1))
  }

  /** Algorithm 3's `O(m)` sweep: the same profile as [[naiveProfile]], from
    * the turn points. From one split to the next, the one subsequence whose
    * true label flips moves its confusion cell, and the subsequences that
    * turn at the new split move their prediction 1 -> 0. The reference for
    * streams too long for the naive profile.
    */
  def sweepProfile(knn: StreamingKnn, scopeStart: Int, w: Int, useF1: Boolean): Vector[Double] = {
    val m = knn.numRows - scopeStart
    val zMax = m - w - 2
    if (zMax < 1) return Vector.empty
    val turn = turnPoints(knn, scopeStart)
    // Per split: how many subsequences turn 0 there while their own true
    // label is still 1 (`j >= zc`), and how many turn while it is already 0.
    val turnsRight = new Array[Int](zMax + 1)
    val turnsLeft = new Array[Int](zMax + 1)
    // The confusion matrix at split 0, where every in-scope label is 1.
    var n11 = 0; var n10 = 0; var n01 = 0; var n00 = 0
    var j = 0
    while (j < m) {
      if (turn(j) == 0) n10 += 1 else n11 += 1
      if (turn(j) <= zMax) { if (j >= turn(j)) turnsRight(turn(j)) += 1 else turnsLeft(turn(j)) += 1 }
      j += 1
    }
    (1 to zMax).map { zc =>
      // The flipped subsequence's prediction is still the one of split zc - 1.
      if (turn(zc - 1) >= zc) { n11 -= 1; n01 += 1 } else { n10 -= 1; n00 += 1 }
      n11 -= turnsRight(zc); n10 += turnsRight(zc)
      n01 -= turnsLeft(zc); n00 += turnsLeft(zc)
      if (useF1) {
        val f1c1 = { val den = 2 * n11 + n10 + n01; if (den == 0) 0.0 else 2.0 * n11 / den }
        val f1c0 = { val den = 2 * n00 + n01 + n10; if (den == 0) 0.0 else 2.0 * n00 / den }
        (f1c0 + f1c1) / 2.0
      } else (n11 + n00).toDouble / m
    }.toVector
  }

  /** Naive predicted labels at a specific split (for validating the labels
    * `ClaspScorer.score` leaves at its best split).
    */
  def naiveYPred(knn: StreamingKnn, scopeStart: Int, zc: Int): Vector[Int] = {
    val m = knn.numRows - scopeStart
    val base = (knn.windowStart + scopeStart).toInt
    val yTrue = Array.tabulate(m)(j => if (j < zc) 0 else 1)
    (0 until m).map { j =>
      var zeros = 0
      var t = 0
      while (t < knn.k) {
        val local = knn.neighborPos(scopeStart + j, t) - base
        if (local < 0 || yTrue(local) == 0) zeros += 1
        t += 1
      }
      if (2 * zeros >= knn.k) 0 else 1
    }.toVector
  }

  /** Deterministic test signals. */
  object Signals {
    def gaussian(n: Int, seed: Long): Array[Double] = {
      val rng = new Rng(seed)
      Array.fill(n)(rng.nextGaussian())
    }
    def noisySine(n: Int, period: Int, noise: Double, seed: Long): Array[Double] = {
      val rng = new Rng(seed)
      Array.tabulate(n)(i => math.sin(2 * math.Pi * i / period) + noise * rng.nextGaussian())
    }
    /** Two shape regimes: sine of `p1` then sine of `p2`, change at `cp`. */
    def twoRegimes(n: Int, cp: Int, p1: Int, p2: Int, noise: Double, seed: Long): Array[Double] = {
      val rng = new Rng(seed)
      Array.tabulate(n) { i =>
        val base = if (i < cp) math.sin(2 * math.Pi * i / p1)
                   else 2.0 * math.signum(math.sin(2 * math.Pi * i / p2))
        base + noise * rng.nextGaussian()
      }
    }
    /** Mean shift: white noise around 0, then around `shift`. */
    def meanShift(n: Int, cp: Int, shift: Double, sigma: Double, seed: Long): Array[Double] = {
      val rng = new Rng(seed)
      Array.tabulate(n)(i => (if (i < cp) 0.0 else shift) + sigma * rng.nextGaussian())
    }
  }
}
