package perfbench

import java.nio.file.Path
import org.apache.spark.ListenerBusDrain
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.{Datasets, MetricDataset}
import repro.spark.DistributedApproxDBSCAN
import scala.reflect.ClassTag
import scala.util.Random

/** Where a workload may write, and how many threads it may use. */
final case class Env(scratch: Path, threads: Int)

/** A workload after set-up: its inputs, the reference its outputs are
  * checked against, and its op.
  */
trait Instance {
  def n: Int

  /** Computes the gate's reference; never inside a timed region. */
  def buildReference(threads: Int): Unit

  /** Runs one op. The returned thunk, called after the op is timed, yields
    * the op's outputs for the gate.
    */
  def op(p: Probe): () => Seq[Produced]

  /** Nanoseconds per distance evaluation, timed over sampled pairs. */
  def nsPerCall(seed: Long): Double

  /** The benchmark's own distance loop over copies of this input. */
  def calibration(seed: Long): Calibration

  def beforeOp(): Unit = ()
  def afterOp(p: Probe, opNs: Long, tracer: Option[Tracer]): Unit = ()
  def close(): Unit = ()
}

trait Workload {
  def name: String
  def setup(seed: Long, env: Env): Instance
}

object Workloads {
  val MinPts = 10
  val all: Seq[Workload] = Seq(TextEdit, VecTune, VecApprox, SparkApprox)
  def byName(name: String): Option[Workload] = all.find(_.name == name)

  /** Size of the pool a workload of n points is sampled from. */
  def pool(n: Int): Int = n + n / 10

  /** A workload's input: a fixed distribution sampled by the seed. The
    * generator runs at its own seed on a pool of `1.1 n` points and ε is
    * `factor` × `Datasets.suggestEps` on that pool, so the data's shape and
    * ε are the same for every seed; the seed picks which n points are used
    * and in what order.
    */
  def sample[T](pool: MetricDataset[T], n: Int, factor: Double, seed: Long): (IndexedSeq[T], Double) = {
    val eps = Datasets.suggestEps(pool, MinPts) * factor
    (new Random(seed).shuffle(pool.points).take(n), eps)
  }

  /** Fresh copies of sampled vectors, allocated in sample order like
    * generated input, so memory layout does not depend on the pool's order.
    */
  def fresh(points: IndexedSeq[Array[Double]]): IndexedSeq[Array[Double]] = points.map(_.clone())
}

/** The calls into the core layers, each with its span, its ledger entry
  * and the statistics its public output carries.
  */
object Layers {

  def net[T](p: Probe, points: IndexedSeq[T], m: Metric[T], rBar: Double): NetOut = {
    val g = p.layer("gonzalez", "gonzalez.calls")(Gonzalez.run(points, m, rBar))
    p.add("gonzalez.centers", g.numCenters)
    p.max("gonzalez.cover_radius", g.coveringRadius / rBar)
    NetOut(g, rBar, points.length)
  }

  /** `ExactDBSCAN.run`, on `net` (built at r̄ = `rBar`) when given. */
  def exact[T](p: Probe, points: IndexedSeq[T], m: Metric[T], eps: Double, minPts: Int,
               net: Option[NetOut]): DBSCANResult = {
    val out = p.layer("exact", "exact.post_net_calls") {
      ExactDBSCAN.run(points, m, eps, minPts, net.map(_.rBar), net.map(n => (n.net, 0L)))
    }
    p.add("exact.label_s", out.timings.labelNs / 1e9)
    p.add("exact.merge_s", out.timings.mergeNs / 1e9)
    p.add("exact.assign_s", out.timings.assignNs / 1e9)
    out.result
  }

  /** `ApproxDBSCAN.run`, on `net` (built at r̄ = ρε/2) when given. */
  def approx[T](p: Probe, points: IndexedSeq[T], m: Metric[T], eps: Double, minPts: Int,
                rho: Double, net: Option[NetOut]): DBSCANResult = {
    val out = p.layer("approx", "approx.post_net_calls") {
      ApproxDBSCAN.run(points, m, eps, minPts, rho, net.map(n => (n.net, 0L)))
    }
    p.add("approx.summary_s", out.timings.summaryNs / 1e9)
    p.add("approx.merge_s", out.timings.mergeNs / 1e9)
    p.add("approx.label_s", out.timings.labelNs / 1e9)
    p.add("approx.summary_size", out.summarySize)
    out.result
  }

  /** The three passes of `StreamingDBSCAN`, each replaying the stream. */
  def streaming[T: ClassTag](p: Probe, chunks: Seq[IndexedSeq[T]], n: Int, m: Metric[T],
                             eps: Double, minPts: Int, rho: Double): Array[Int] = {
    val s = new StreamingDBSCAN[T](m, eps, minPts, rho)
    p.layer("stream.pass1", "stream.pass1_calls") { chunks.foreach(s.observePass1); s.finishPass1() }
    p.add("stream.balls", s.numBalls)
    p.max("stream.state_ratio", s.memoryFootprint.toDouble / n)
    p.layer("stream.pass2", "stream.pass2_calls")(chunks.foreach(s.observePass2))
    p.layer("stream.merge", "stream.merge_calls")(s.mergeSummary())
    p.add("stream.summary_size", s.summarySize)
    p.layer("stream.pass3", "stream.pass3_calls")(chunks.iterator.flatMap(s.labelPass3).toArray)
  }

  def nsPerCall[T](points: IndexedSeq[T], metric: Metric[T], seed: Long): Double = {
    val rnd   = new Random(seed)
    val pairs = Array.fill(1024)((points(rnd.nextInt(points.length)), points(rnd.nextInt(points.length))))
    var sink  = 0.0
    var calls = 0L
    val t0    = System.nanoTime()
    while (System.nanoTime() - t0 < 300000000L) {
      pairs.foreach { case (a, b) => sink += metric.dist(a, b) }
      calls += pairs.length
    }
    val ns = (System.nanoTime() - t0).toDouble / calls
    if (sink.isNaN) Double.NaN else ns
  }
}

/** A workload on the sequential core: one dataset, the (radius, MinPts)
  * pairs its gate needs, and the brute-force reference at those pairs.
  */
abstract class CoreInstance[T](val points: IndexedSeq[T], val metric: Metric[T]) extends Instance {
  def n: Int = points.length
  def configs: Seq[(Double, Int)]
  protected var ref: Map[(Double, Int), Solution] = Map.empty
  def buildReference(threads: Int): Unit = ref = Reference.solve(points, metric, configs, threads)
  def nsPerCall(seed: Long): Double = Layers.nsPerCall(points, metric, seed)
}

/** AG_News-like strings under Levenshtein distance: exact DBSCAN, then
  * ρ = 0.5 approximate DBSCAN, each on its own net.
  */
object TextEdit extends Workload {
  val name = "text-edit"
  val N    = 400
  val Rho  = 0.5

  def setup(seed: Long, env: Env): Instance = {
    val pool       = Datasets.text("AG_News", Workloads.pool(N), k = 4, seed = 83)
    val (pts, eps) = Workloads.sample(pool, N, factor = 2.5, seed)
    val mp         = Workloads.MinPts
    new CoreInstance(pts, pool.metric) {
      val configs = Seq((eps, mp), ((1 + Rho) * eps, mp))
      def calibration(seed: Long): Calibration = Calibration.edit(points, seed)
      def op(p: Probe): () => Seq[Produced] = {
        val m      = p.wrap(metric)
        val exNet  = Option.when(p.split)(Layers.net(p, points, m, eps / 2))
        val ex     = Layers.exact(p, points, m, eps, mp, exNet)
        val apNet  = Option.when(p.split)(Layers.net(p, points, m, Rho * eps / 2))
        val ap     = Layers.approx(p, points, m, eps, mp, Rho, apNet)
        () => Seq(ExactOut(ref(configs(0)), ex),
                  ApproxOut(ref(configs(0)), ref(configs(1)), ap.labels, Some(ap.types))) ++
          exNet ++ apNet
      }
    }
  }
}

/** Spotify-like 21-d vectors: one ε/2-net, reused for exact DBSCAN over a
  * 4 × 3 grid of ε and MinPts (the paper's Remark 5).
  */
object VecTune extends Workload {
  val name       = "vec-tune"
  val N          = 4000
  val EpsFactors = Seq(1.0, 1.25, 1.5, 2.0)
  val MinPtsGrid = Seq(5, 10, 20)

  def setup(seed: Long, env: Env): Instance = {
    val pool       = Datasets.spotifyLike(Workloads.pool(N))
    val (pts, eps) = Workloads.sample(pool, N, factor = 2.5, seed)
    new CoreInstance(Workloads.fresh(pts), pool.metric) {
      val configs = for (f <- EpsFactors; mp <- MinPtsGrid) yield (eps * f, mp)
      def calibration(seed: Long): Calibration = Calibration.euclid(points, seed)
      def op(p: Probe): () => Seq[Produced] = {
        val m   = p.wrap(metric)
        val net = Layers.net(p, points, m, eps / 2)
        val outs = configs.map { case c @ (e, mp) =>
          ExactOut(ref(c), Layers.exact(p, points, m, e, mp, Some(net)))
        }
        () => net +: outs
      }
    }
  }
}

/** MNIST-like 64-d manifold data: batch approximate DBSCAN and the 3-pass
  * streaming algorithm at each ρ in {0.5, 1, 2}.
  */
object VecApprox extends Workload {
  val name  = "vec-approx"
  val N     = 2000
  val Rhos  = Seq(0.5, 1.0, 2.0)
  val Chunk = 1024

  def setup(seed: Long, env: Env): Instance = {
    val pool       = Datasets.manifold("MNIST", Workloads.pool(N), d = 64, dIntrinsic = 2, k = 10, seed = 53)
    val (pts, eps) = Workloads.sample(pool, N, factor = 1.75, seed)
    val mp         = Workloads.MinPts
    new CoreInstance(Workloads.fresh(pts), pool.metric) {
      val configs = (eps, mp) +: Rhos.map(r => ((1 + r) * eps, mp))
      def calibration(seed: Long): Calibration = Calibration.euclid(points, seed)
      val chunks  = points.grouped(Chunk).toVector
      def op(p: Probe): () => Seq[Produced] = {
        val m  = p.wrap(metric)
        val lo = configs.head
        val batch = Rhos.zip(configs.tail).flatMap { case (rho, hi) =>
          val net = Option.when(p.split)(Layers.net(p, points, m, rho * eps / 2))
          val r   = Layers.approx(p, points, m, eps, mp, rho, net)
          net.toSeq :+ ApproxOut(ref(lo), ref(hi), r.labels, Some(r.types))
        }
        val streamed = Rhos.zip(configs.tail).map { case (rho, hi) =>
          ApproxOut(ref(lo), ref(hi), Layers.streaming(p, chunks, n, m, eps, mp, rho), None)
        }
        () => batch ++ streamed
      }
    }
  }
}

/** Moons as an RDD with one partition per core: `DistributedApproxDBSCAN`
  * at ρ = 1 with default settings, then a count of its labels.
  */
object SparkApprox extends Workload {
  val name = "spark-approx"
  val N    = 250
  val Rho  = 1.0

  def setup(seed: Long, env: Env): Instance = {
    val spark = SparkSession.builder
      .master(s"local[${env.threads}]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", env.scratch.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", env.scratch.resolve("spark-warehouse").toString)
      .config("spark.sql.shuffle.partitions", env.threads.toString)
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    val pool       = Datasets.moons(Workloads.pool(N))
    val (pts, eps) = Workloads.sample(pool, N, factor = 1.3, seed)
    val rdd = spark.sparkContext
      .parallelize(pts.indices.map(i => (i.toLong, pts(i))), env.threads)
      .cache()
    rdd.count()
    new SparkInstance(spark, rdd, pts, pool.metric, eps)
  }

  final class SparkInstance(spark: SparkSession, rdd: RDD[(Long, Array[Double])],
                            points: IndexedSeq[Array[Double]], metric: Metric[Array[Double]],
                            eps: Double) extends Instance {
    private val sc        = spark.sparkContext
    private val footprint = new SparkFootprint
    sc.addSparkListener(footprint)
    // Listener events carry wall-clock milliseconds; spans use nanoTime.
    private val clockOffsetNs = System.nanoTime() - System.currentTimeMillis() * 1000000L
    private val configs       = Seq((eps, Workloads.MinPts), ((1 + Rho) * eps, Workloads.MinPts))
    private var ref: Map[(Double, Int), Solution] = Map.empty

    def n: Int = points.length
    def buildReference(threads: Int): Unit = ref = Reference.solve(points, metric, configs, threads)
    def nsPerCall(seed: Long): Double = Layers.nsPerCall(points, metric, seed)
    def calibration(seed: Long): Calibration = Calibration.sparkJob(sc, rdd.getNumPartitions)

    override def beforeOp(): Unit = { ListenerBusDrain(sc); footprint.reset() }

    def op(p: Probe): () => Seq[Produced] = {
      val m    = p.wrapSpark(metric, sc)
      val out  = p.layer("spark.run")(DistributedApproxDBSCAN.run(spark, rdd, m, eps, Workloads.MinPts, Rho))
      val rows = p.layer("spark.count")(out.labeled.count())
      p.add("spark.centers", out.numCenters)
      p.add("spark.summary_size", out.summarySize)
      () => {
        val labels = Array.fill(n)(Int.MinValue)
        out.labeled.collect().foreach(r => labels(r.getLong(0).toInt) = r.getInt(1))
        sc.getPersistentRDDs.values.filter(_.id != rdd.id).foreach(_.unpersist(blocking = true))
        if (rows != n || labels.contains(Int.MinValue)) Seq(Invalid(s"spark: $rows label rows for $n points"))
        else Seq(ApproxOut(ref(configs(0)), ref(configs(1)), labels, None))
      }
    }

    override def afterOp(p: Probe, opNs: Long, tracer: Option[Tracer]): Unit = {
      ListenerBusDrain(sc)
      val (counts, jobsMs) = footprint.snapshot()
      counts.foreach { case (k, v) => p.add(k, v) }
      val jobs    = jobsMs.map { case (s, e) => (s * 1000000L + clockOffsetNs, e * 1000000L + clockOffsetNs) }
      val covered = math.min(Tracer.covered(jobs), opNs)
      p.add("spark.job_s", covered / 1e9)
      p.add("spark.driver_s", (opNs - covered) / 1e9)
      tracer.foreach(t => jobs.foreach { case (s, e) => t.external(p.op, "spark.job", s, e) })
    }

    override def close(): Unit = spark.stop()
  }
}
