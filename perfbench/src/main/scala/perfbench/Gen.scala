package perfbench

import repro.data.GraphGen
import scala.util.Random

/** The generated input of one workload: all the program under test receives. */
final case class Input(n: Int, edges: Vector[(Int, Int, Double)], vw: Array[Double])

/** Seeded workload graphs with the shape `repro.data.Datasets` gives its
  * analogues (a background graph plus planted dense blocks), but built from
  * an explicit seed: `Datasets` derives its seeds from name hashes and keeps
  * its builder private.
  */
object Gen {

  /** Blocks are small against the background, as in `Datasets`. */
  private def blockSize(n: Int): Int = math.max(6, math.min(40, n / 100))

  private def vertexWeights(n: Int, seed: Long): Array[Double] = {
    val rnd = new Random(seed)
    Array.fill(n)(math.abs(rnd.nextGaussian()) * 0.1)
  }

  /** Power-law background of `m` sampled edges plus two planted dense
    * blocks (the social / web / kron shape).
    */
  def powerLaw(n: Int, m: Int, skew: Double, seed: Long): Input = {
    val b1 = GraphGen.sample(n, blockSize(n), seed + 1)
    val b2 = GraphGen.sample(n, blockSize(n), seed + 2)
    val edges = GraphGen.powerLaw(n, m, skew, seed) ++
      GraphGen.plantBlock(b1, 0.8, 4.0, seed + 3) ++
      GraphGen.plantBlock(b2, 0.6, 3.0, seed + 4)
    Input(n, edges, vertexWeights(n, seed))
  }

  /** Bipartite transactions, customers `[0, 0.75n)` × merchants, with
    * duplicates kept; returns the background and the planted fraud ring
    * apart so a stream can place the ring where it wants.
    */
  def transactions(n: Int, m: Int, skew: Double, seed: Long)
      : (Input, Vector[(Int, Int, Double)]) = {
    val nC = (n * 0.75).toInt
    val customers = GraphGen.sample(n, blockSize(n), seed + 1).map(_ % nC).distinct
    val merchants = GraphGen.sample(n, blockSize(n), seed + 2).map(x => nC + x % (n - nC)).distinct
    val ring = GraphGen.plantBipartiteBlock(customers, merchants, 0.8, 4.0, seed + 3)
    (Input(n, GraphGen.bipartite(nC, n - nC, m, skew, seed), vertexWeights(n, seed)), ring)
  }
}
