package repro.linalg

/** Deterministic xorshift64* RNG.
  *
  * Every stochastic component in the repo (weight init, sampling,
  * corruption) draws from an explicitly seeded `Rng` so that experiments
  * are exactly reproducible given (seed, sf).
  */
final class Rng(seed: Long) extends Serializable {
  private var state: Long = if (seed == 0L) 0x9E3779B97F4A7C15L else seed

  def nextLong(): Long = {
    var x = state
    x ^= x >>> 12
    x ^= x << 25
    x ^= x >>> 27
    state = x
    x * 0x2545F4914F6CDD1DL
  }

  /** Uniform in [0, 1). */
  def nextDouble(): Double = (nextLong() >>> 11).toDouble / (1L << 53).toDouble

  def uniform(lo: Double, hi: Double): Double = lo + (hi - lo) * nextDouble()

  def nextInt(n: Int): Int = {
    require(n > 0, "nextInt bound must be positive")
    (nextDouble() * n).toInt.min(n - 1)
  }

  def nextBoolean(p: Double): Boolean = nextDouble() < p

  def shuffle[T](xs: Seq[T]): Seq[T] = {
    val a = xs.toBuffer
    var i = a.length - 1
    while (i > 0) { val j = nextInt(i + 1); val t = a(i); a(i) = a(j); a(j) = t; i -= 1 }
    a.toSeq
  }

  def pick[T](xs: Seq[T]): T = xs(nextInt(xs.length))

  /** `n` distinct indices in [0, bound). */
  def sampleIndices(bound: Int, n: Int): Array[Int] =
    shuffle(0 until bound).take(n).toArray
}
